(* Cell construction and boot.

   When the system boots, each cell is assigned a range of nodes that it
   owns throughout execution; it manages their processors, memory and I/O
   devices as an independent kernel (Figure 3.1). Boot reserves kernel
   pages on the boss node (holding the published clock word, Wax slots and
   serialized kernel structures), grants its own processors write access
   to all of its memory, and starts the RPC dispatch threads and the clock
   interrupt. *)

module Count = struct
  let boots =
    Sim.Stats.declare ~name:"cell.boots" ~unit:"count"
      ~doc:"cell kernel boots, reintegrations included"
end

let kernel_reserved_pages = 64

(* A cell as boot (and a reboot) finds it: no processes, no page cache,
   and a frame pool of the cell's consecutive nodes less the kernel
   reserve at the start of the boss node, all free. *)
let make (mcfg : Flash.Config.t) ~id ~nodes : Types.cell =
  let boss = List.hd nodes in
  if nodes <> List.init (List.length nodes) (fun k -> boss + k) then
    invalid_arg "Cell.make: a cell's nodes must be consecutive";
  let kmem_base = boss * Flash.Config.mem_bytes_per_node mcfg in
  let kmem_limit = kmem_base + (kernel_reserved_pages * Flash.Config.page_size) in
  let own_lo =
    Flash.Addr.first_pfn_of_node mcfg boss + kernel_reserved_pages
  in
  let nframes =
    (List.length nodes * mcfg.Flash.Config.mem_pages_per_node)
    - kernel_reserved_pages
  in
  {
    Types.cell_id = id;
    cell_nodes = nodes;
    boss_node = boss;
    cstatus = Types.Cell_up;
    mem_alive = false;
    live_set = [];
    page_hash = Pfdat.create_table ();
    page_index = Pfdat.create_head ();
    frames = Hashtbl.create 1024;
    pool =
      { Types.own_lo; own_hi = own_lo + nframes; fresh = 0; own_free = [];
        held = Hashtbl.create 64; borrowed_free = []; nfree = nframes };
    files = Hashtbl.create 64;
    files_by_ino = Hashtbl.create 64;
    next_ino = 0;
    next_disk_block = 16;
    kmem =
      {
        Types.kmem_base;
        kmem_limit;
        (* First words reserved: clock word and incarnation slots. *)
        kmem_next = kmem_base + 128;
        kmem_free = [];
      };
    clock_addr = kmem_base;
    clock_due = -1L;
    processes = [];
    user_gate_open = true;
    gate_waiters = [];
    next_call_id = 0;
    incarnation = 0;
    rpc_rng = Sim.Prng.create (0x5EED0 + id);
    pending_calls = Hashtbl.create 64;
    rpc_sessions = Hashtbl.create 8;
    rpc_queue = Sim.Mailbox.create ();
    release_queue = Sim.Mailbox.create ();
    park_list = Pfdat.create_head ();
    nparked = 0;
    readahead = Hashtbl.create 16;
    pending_releases = Hashtbl.create 16;
    flush_epoch = 0;
    swap_table = Hashtbl.create 64;
    swap_blocks_used = 0;
    swap_free_blocks = [];
    false_alerts = [];
    recovery_thread = None;
    alloc_preference = [];
    clock_hand_targets = [];
    swap_hint = 0;
    salvaged_by_home = Hashtbl.create 16;
    rr_cpu = 0;
    wax_slot = kmem_base + 8;
    kernel_threads = [];
    counters = Sim.Stats.registry ();
    fault_in_cache_ns = Sim.Stats.summary ();
    remote_fault_ns = Sim.Stats.summary ();
  }

(* Grant this cell's processors write access to all of its own memory;
   remote cells get nothing until an export grants them a page. The vector
   is overwritten, not OR-ed: on a reboot after a failure the hardware
   still holds the grants the previous incarnation handed out, and
   inheriting them would leave remote cells able to wild-write memory the
   new kernel never exported. *)
let init_firewall (sys : Types.system) (c : Types.cell) =
  let fw = Flash.Machine.firewall sys.Types.machine in
  let own = Flash.Firewall.proc_mask c.Types.cell_nodes in
  List.iter
    (fun node -> Flash.Firewall.set_node_default fw ~by:node ~node own)
    c.Types.cell_nodes

(* Boot runs inside a simulation thread. *)
let boot (sys : Types.system) (c : Types.cell) =
  init_firewall sys c;
  c.Types.live_set <-
    Array.to_list sys.Types.cells |> List.map (fun cl -> cl.Types.cell_id);
  (* Initialize the published clock word and Wax slot. *)
  Kmem.write_i64 sys c.Types.clock_addr 0L;
  Kmem.write_i64 sys c.Types.wax_slot 0L;
  Rpc.start_threads sys c;
  Clock.start sys c;
  Clock_hand.start sys c;
  (* Reaper: releases imports dropped by exiting processes (process
     teardown itself runs outside any thread context). The queue is
     drained in bursts so the releases coalesce into one vectored RPC per
     data home instead of one RPC per page. *)
  ignore
    (Types.spawn_kernel sys c
       ~name:(Printf.sprintf "cell%d.reaper" c.Types.cell_id)
       (fun () ->
         let rec loop () =
           match Sim.Mailbox.receive sys.Types.eng c.Types.release_queue with
           | Some pf ->
             let burst = ref [ pf ] in
             let rec drain () =
               match Sim.Mailbox.try_receive c.Types.release_queue with
               | Some q ->
                 burst := q :: !burst;
                 drain ()
               | None -> ()
             in
             drain ();
             let live, orphaned =
               List.partition
                 (fun (q : Types.pfdat) ->
                   match q.Types.role with
                   | Types.Import { home; _ } -> List.mem home c.Types.live_set
                   | Types.Home | Types.Salvaged _ | Types.Dropped -> false)
                 !burst
             in
             List.iter (Pfdat.free_extended c) orphaned;
             Share.release_all sys c live;
             loop ()
           | None -> ()
         in
         loop ()));
  Types.bump c Count.boots
