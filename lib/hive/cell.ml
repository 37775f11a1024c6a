(* Cell construction and boot.

   When the system boots, each cell is assigned a range of nodes that it
   owns throughout execution; it manages their processors, memory and I/O
   devices as an independent kernel (Figure 3.1). Boot reserves kernel
   pages on the boss node (holding the published clock word, Wax slots and
   serialized kernel structures), grants its own processors write access
   to all of its memory, and starts the RPC dispatch and clock threads. *)

module Count = struct
  let boots =
    Sim.Stats.declare ~name:"cell.boots" ~unit:"count"
      ~doc:"cell kernel boots, reintegrations included"
end

let kernel_reserved_pages = 64

let make (mcfg : Flash.Config.t) ~id ~nodes : Types.cell =
  let boss = List.hd nodes in
  let kmem_base = boss * Flash.Config.mem_bytes_per_node mcfg in
  let kmem_limit = kmem_base + (kernel_reserved_pages * Flash.Config.page_size) in
  {
    Types.cell_id = id;
    cell_nodes = nodes;
    boss_node = boss;
    cstatus = Types.Cell_up;
    mem_alive = false;
    live_set = [];
    page_hash = Pfdat.create_table ();
    page_index = Pfdat.create_index ();
    frames = Hashtbl.create 1024;
    free_frames = [];
    free_frame_count = 0;
    total_frames = 0;
    reserved_loans = [];
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
    import_cache = Types.new_import_cache ();
    readahead = Hashtbl.create 16;
    pending_releases = Hashtbl.create 16;
    flush_epoch = 0;
    swap_table = Hashtbl.create 64;
    swap_blocks_used = 0;
    swap_free_blocks = [];
    suspected = [];
    false_alerts = [];
    in_recovery = false;
    recovery_active = false;
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

(* Populate the free-frame list: every owned page except the kernel
   reserve on the boss node. *)
let init_frames (sys : Types.system) (c : Types.cell) =
  let cfg = sys.Types.mcfg in
  let frames = ref [] in
  List.iter
    (fun node ->
      let first = Flash.Addr.first_pfn_of_node cfg node in
      let skip = if node = c.Types.boss_node then kernel_reserved_pages else 0 in
      for pfn = first + skip to first + cfg.Flash.Config.mem_pages_per_node - 1 do
        frames := pfn :: !frames
      done)
    c.Types.cell_nodes;
  Types.set_free c (List.rev !frames);
  c.Types.total_frames <- c.Types.free_frame_count

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
  init_frames sys c;
  init_firewall sys c;
  c.Types.live_set <-
    Array.to_list sys.Types.cells |> List.map (fun cl -> cl.Types.cell_id);
  (* Initialize the published clock word and Wax slot. *)
  Flash.Memory.write_i64 sys.Types.eng
    (Flash.Machine.memory sys.Types.machine)
    ~by:(Types.boss_proc c) c.Types.clock_addr 0L;
  Flash.Memory.write_i64 sys.Types.eng
    (Flash.Machine.memory sys.Types.machine)
    ~by:(Types.boss_proc c) c.Types.wax_slot 0L;
  Rpc.start_threads sys c;
  Clock.start sys c;
  Clock_hand.start sys c;
  (* Reaper: releases imports dropped by exiting processes (process
     teardown itself runs outside any thread context). The queue is
     drained in bursts so the releases coalesce into one vectored RPC per
     data home instead of one RPC per page. *)
  let reaper =
    Sim.Engine.spawn sys.Types.eng
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
                  match q.Types.imported_from with
                  | Some home -> List.mem home c.Types.live_set
                  | None -> false)
                !burst
            in
            List.iter (fun q -> Share.drop_import c q) orphaned;
            Share.release_all sys c live;
            loop ()
          | None -> ()
        in
        loop ())
  in
  c.Types.kernel_threads <- reaper :: c.Types.kernel_threads;
  Types.bump c Count.boots
