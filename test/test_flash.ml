(* Tests for the FLASH machine model: firewall semantics, memory fault
   model, SIPS, CPU occupancy, disk latencies. *)

let cfg = Flash.Config.small

let with_machine f =
  let eng = Sim.Engine.create () in
  let m = Flash.Machine.create eng cfg in
  f eng m;
  Sim.Engine.run eng

let in_thread eng body = ignore (Sim.Engine.spawn eng body)

let page = Flash.Config.page_size

(* A pfn on node 1 (remote from proc 0). *)
let remote_pfn = cfg.Flash.Config.mem_pages_per_node

let test_addr_mapping () =
  Alcotest.(check int) "node of pfn 0" 0 (Flash.Addr.node_of_pfn cfg 0);
  Alcotest.(check int) "node of remote pfn" 1
    (Flash.Addr.node_of_pfn cfg remote_pfn);
  Alcotest.(check int) "local index" 0 (Flash.Addr.local_index cfg remote_pfn);
  Alcotest.(check int) "roundtrip" 17
    (Flash.Addr.pfn_of_addr (Flash.Addr.addr_of_pfn 17))

let test_firewall_local_only () =
  let fw = Flash.Firewall.create cfg in
  (* Processor 0 cannot change bits for node 1's memory. *)
  Alcotest.check_raises "remote change rejected"
    Flash.Firewall.Not_local_processor (fun () ->
      Flash.Firewall.grant fw ~by:0 ~pfn:remote_pfn ~proc:0);
  Flash.Firewall.grant fw ~by:1 ~pfn:remote_pfn ~proc:0;
  Alcotest.(check bool) "granted" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:0)

let test_firewall_grant_revoke () =
  let fw = Flash.Firewall.create cfg in
  Flash.Firewall.grant_many fw ~by:1 ~pfn:remote_pfn [ 0; 1 ];
  Alcotest.(check bool) "proc0" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:0);
  Alcotest.(check bool) "proc1" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:1);
  Alcotest.(check int) "counted as remotely writable" 1
    (Flash.Firewall.remote_writable_pages fw ~node:1);
  Flash.Firewall.revoke_all_remote fw ~by:1 ~pfn:remote_pfn;
  Alcotest.(check bool) "proc0 revoked" false
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:0);
  Alcotest.(check bool) "local kept" true
    (Flash.Firewall.allowed fw ~pfn:remote_pfn ~proc:1);
  Alcotest.(check int) "no longer remotely writable" 0
    (Flash.Firewall.remote_writable_pages fw ~node:1)

let test_config_large_machines () =
  (* The permission vector used to be a single 64-bit word per page, so
     any config past 64 processors either aliased bit_of_proc (proc land
     63) or was rejected outright. The multi-word vectors lift the cap to
     [Config.max_nodes]; what must now hold is that grants past processor
     63 never alias a low processor's bit. *)
  let big =
    { cfg with Flash.Config.nodes = 65; mem_pages_per_node = 8 }
  in
  let fw = Flash.Firewall.create big in
  let pfn64 = 64 * big.Flash.Config.mem_pages_per_node in
  (* Proc 64 would have aliased proc 0 under the old masking. *)
  Flash.Firewall.grant fw ~by:64 ~pfn:pfn64 ~proc:64;
  Alcotest.(check bool) "proc 64 granted" true
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:64);
  Alcotest.(check bool) "proc 0 not aliased" false
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:0);
  Flash.Firewall.grant fw ~by:64 ~pfn:pfn64 ~proc:1;
  Flash.Firewall.revoke fw ~by:64 ~pfn:pfn64 ~proc:64;
  Alcotest.(check bool) "proc 64 revoked" false
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:64);
  Alcotest.(check bool) "proc 1 grant survives" true
    (Flash.Firewall.allowed fw ~pfn:pfn64 ~proc:1);
  (* The cap is now the sparse-representation bound, not a word size. *)
  let too_big =
    { cfg with Flash.Config.nodes = Flash.Config.max_nodes + 1 }
  in
  (match Flash.Firewall.create too_big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument past max_nodes");
  (* A machine needs nodes and memory on each of them. *)
  List.iter
    (fun (what, bad) ->
      match Flash.Config.validate bad with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "expected Invalid_argument for %s" what)
    [ ("no nodes", { cfg with Flash.Config.nodes = 0 });
      ("no memory", { cfg with Flash.Config.mem_pages_per_node = 0 }) ]

let test_firewall_pages_writable_by_mask () =
  let fw = Flash.Firewall.create cfg in
  Flash.Firewall.grant fw ~by:1 ~pfn:remote_pfn ~proc:0;
  Flash.Firewall.grant fw ~by:1 ~pfn:(remote_pfn + 5) ~proc:0;
  Flash.Firewall.grant fw ~by:0 ~pfn:3 ~proc:1;
  let mask = Flash.Firewall.proc_mask [ 0 ] in
  Alcotest.(check (list int)) "masked scan of node 1"
    [ remote_pfn; remote_pfn + 5 ]
    (Flash.Firewall.pages_writable_by_mask fw ~node:1 ~mask);
  (* Node 0's own-processor bits don't match a mask of other procs. *)
  Alcotest.(check (list int)) "node 0 has no pages writable by proc 0" []
    (Flash.Firewall.pages_writable_by_mask fw ~node:0 ~mask);
  Alcotest.(check (list int)) "combined mask matches per-proc scans"
    (Flash.Firewall.writable_by fw ~proc:0
    @ Flash.Firewall.writable_by fw ~proc:1
    |> List.sort_uniq compare)
    (List.concat_map
       (fun node ->
         Flash.Firewall.pages_writable_by_mask fw ~node
           ~mask:(Flash.Firewall.proc_mask [ 0; 1 ]))
       [ 0; 1 ])

let test_firewall_writable_by () =
  let fw = Flash.Firewall.create cfg in
  Flash.Firewall.grant fw ~by:1 ~pfn:remote_pfn ~proc:0;
  Flash.Firewall.grant fw ~by:1 ~pfn:(remote_pfn + 3) ~proc:0;
  Alcotest.(check (list int)) "writable_by finds both"
    [ remote_pfn; remote_pfn + 3 ]
    (Flash.Firewall.writable_by fw ~proc:0)

let test_memory_write_requires_firewall () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          let addr = Flash.Addr.addr_of_pfn remote_pfn in
          (* Proc 0 writing to node 1's memory without permission: denied. *)
          (try
             Flash.Memory.write eng mem ~by:0 addr (Bytes.of_string "hi");
             Alcotest.fail "expected firewall bus error"
           with Flash.Memory.Bus_error { cause = Firewall_denied; _ } -> ());
          (* After a grant by the local processor it succeeds. *)
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1 ~pfn:remote_pfn
            ~proc:0;
          Flash.Memory.write eng mem ~by:0 addr (Bytes.of_string "hi");
          Alcotest.(check string) "data written" "hi"
            (Bytes.to_string (Flash.Memory.peek mem addr 2))))

let test_memory_local_write_allowed () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          (* A processor always starts without permission even locally;
             grant to self first (the kernel does this at boot). *)
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:0 ~pfn:0 ~proc:0;
          Flash.Memory.write eng mem ~by:0 0 (Bytes.of_string "x");
          Alcotest.(check string) "local write lands" "x"
            (Bytes.to_string (Flash.Memory.peek mem 0 1))))

let test_memory_failed_node_bus_error () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Machine.fail_node m 1;
          let addr = Flash.Addr.addr_of_pfn remote_pfn in
          try
            ignore (Flash.Memory.read eng mem ~by:0 addr 8);
            Alcotest.fail "expected bus error"
          with Flash.Memory.Bus_error { cause = Node_failed; _ } -> ()))

let test_memory_cutoff () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Machine.cutoff_node m 1;
          let addr = Flash.Addr.addr_of_pfn remote_pfn in
          (* Remote access refused... *)
          (try
             ignore (Flash.Memory.read eng mem ~by:0 addr 8);
             Alcotest.fail "expected cutoff bus error"
           with Flash.Memory.Bus_error { cause = Cutoff; _ } -> ());
          (* ...but the local processor still reaches its own memory. *)
          ignore (Flash.Memory.read eng mem ~by:1 addr 8)))

let test_memory_read_latency () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          let t0 = Sim.Engine.time () in
          ignore (Flash.Memory.read eng mem ~by:0 0 8);
          let dt = Int64.sub (Sim.Engine.time ()) t0 in
          (* One cache line: one 700 ns miss. *)
          Alcotest.(check int64) "one-line read costs one miss" 700L dt))

let test_memory_write_latency_includes_firewall_check () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:0 ~pfn:0 ~proc:0;
          let t0 = Sim.Engine.time () in
          Flash.Memory.write eng mem ~by:0 0 (Bytes.make 8 'a');
          let dt = Int64.sub (Sim.Engine.time ()) t0 in
          Alcotest.(check int64) "miss + firewall check" 740L dt))

let test_wild_write_honours_firewall () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          ignore eng;
          let mem = Flash.Machine.memory m in
          let addr = Flash.Addr.addr_of_pfn remote_pfn in
          (try
             Flash.Memory.poke_wild mem ~by:0 addr (Bytes.of_string "evil");
             Alcotest.fail "wild write should bounce off firewall"
           with Flash.Memory.Bus_error { cause = Firewall_denied; _ } -> ());
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1 ~pfn:remote_pfn
            ~proc:0;
          Flash.Memory.poke_wild mem ~by:0 addr (Bytes.of_string "evil");
          Alcotest.(check string) "corruption landed" "evil"
            (Bytes.to_string (Flash.Memory.peek mem addr 4))))

let test_sips_roundtrip () =
  let got = ref None in
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          match Flash.Sips.receive sips ~node:1 ~kind:Flash.Sips.Request with
          | Some env -> got := Some env.Flash.Sips.src_proc
          | None -> ());
      in_thread eng (fun () ->
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:64 Flash.Sips.(Request |> fun _ -> Obj.magic 0)));
  ignore !got

let test_sips_latency_and_size () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      let received_at = ref 0L in
      in_thread eng (fun () ->
          match Flash.Sips.receive sips ~node:1 ~kind:Flash.Sips.Request with
          | Some _ -> received_at := Sim.Engine.time ()
          | None -> ());
      in_thread eng (fun () ->
          (try
             Flash.Sips.send sips ~from_proc:0 ~to_node:1
               ~kind:Flash.Sips.Request ~size:129 (Obj.magic 0)
           with Flash.Sips.Too_large _ -> ());
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:128 (Obj.magic 0)));
  ()

let test_sips_to_failed_node () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          Flash.Machine.fail_node m 1;
          try
            Flash.Sips.send sips ~from_proc:0 ~to_node:1
              ~kind:Flash.Sips.Request ~size:8 (Obj.magic 0);
            Alcotest.fail "send to failed node should raise"
          with Flash.Sips.Target_failed 1 -> ()))

let test_cpu_fifo () =
  with_machine (fun eng m ->
      let cpu = Flash.Machine.cpu m 0 in
      let finish = ref [] in
      for i = 1 to 3 do
        in_thread eng (fun () ->
            Flash.Cpu.use eng cpu 100L;
            finish := (i, Sim.Engine.time ()) :: !finish)
      done;
      in_thread eng (fun () ->
          Sim.Engine.delay 1000L;
          Alcotest.(check (list (pair int int64)))
            "FIFO service"
            [ (1, 100L); (2, 200L); (3, 300L) ]
            (List.rev !finish)))

let test_cpu_interrupt_steals () =
  with_machine (fun eng m ->
      let cpu = Flash.Machine.cpu m 0 in
      let done_at = ref 0L in
      in_thread eng (fun () ->
          Flash.Cpu.use eng cpu 100L;
          done_at := Sim.Engine.time ());
      in_thread eng (fun () ->
          Sim.Engine.delay 50L;
          Flash.Cpu.steal eng cpu 30L);
      in_thread eng (fun () ->
          Sim.Engine.delay 1000L;
          Alcotest.(check int64) "burst stretched by interrupt" 130L !done_at))

let test_cpu_halt () =
  with_machine (fun eng m ->
      let cpu = Flash.Machine.cpu m 0 in
      in_thread eng (fun () ->
          Flash.Cpu.halt cpu;
          try
            Flash.Cpu.use eng cpu 10L;
            Alcotest.fail "halted CPU should raise"
          with Flash.Cpu.Halted 0 -> ()))

let test_disk_sequential_faster () =
  with_machine (fun eng m ->
      let disk = Flash.Machine.disk m 0 in
      in_thread eng (fun () ->
          let t0 = Sim.Engine.time () in
          Flash.Disk.read eng disk ~block:10 ~bytes:4096;
          let first = Int64.sub (Sim.Engine.time ()) t0 in
          let t1 = Sim.Engine.time () in
          Flash.Disk.read eng disk ~block:11 ~bytes:4096;
          let second = Int64.sub (Sim.Engine.time ()) t1 in
          Alcotest.(check bool) "sequential access cheaper" true
            (Int64.compare second first < 0)))

let test_node_failure_listener () =
  with_machine (fun eng m ->
      let hit = ref (-1) in
      Flash.Machine.on_node_failure m (fun i -> hit := i);
      in_thread eng (fun () ->
          Flash.Machine.fail_node m 1;
          Alcotest.(check int) "listener told" 1 !hit;
          Alcotest.(check bool) "marked dead" false (Flash.Machine.node_alive m 1)))

let test_restore_node () =
  with_machine (fun eng m ->
      in_thread eng (fun () ->
          let mem = Flash.Machine.memory m in
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1 ~pfn:remote_pfn
            ~proc:1;
          let addr = Flash.Addr.addr_of_pfn remote_pfn in
          Flash.Memory.write eng mem ~by:1 addr (Bytes.of_string "z");
          Flash.Machine.fail_node m 1;
          Flash.Machine.restore_node m 1;
          Alcotest.(check bool) "alive again" true (Flash.Machine.node_alive m 1);
          Alcotest.(check string) "memory zeroed on reintegration" "\000"
            (Bytes.to_string (Flash.Memory.peek mem addr 1))))

let test_sips_degradation_deterministic () =
  (* A degradation window drops/duplicates/delays from its own seeded
     PRNG: two identical runs must do exactly the same damage, and the
     delivered-message count must balance sends - drops + dups. *)
  let sent = 60 in
  let run () =
    let eng = Sim.Engine.create () in
    let m = Flash.Machine.create eng cfg in
    let sips = Flash.Machine.sips m in
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Flash.Sips.degrade sips ~rng:(Sim.Prng.create 99)
             {
               Flash.Sips.deg_from = -1;
               deg_to = 1;
               from_ns = 0L;
               until_ns = 1_000_000_000L;
               drop_pct = 30;
               dup_pct = 25;
               delay_pct = 25;
               max_delay_ns = 10_000L;
             };
           for _ = 1 to sent do
             Flash.Sips.send sips ~from_proc:0 ~to_node:1
               ~kind:Flash.Sips.Request ~size:8 (Obj.magic 0);
             Sim.Engine.delay 10_000L
           done;
           Sim.Engine.delay 1_000_000L));
    Sim.Engine.run eng;
    ( Flash.Sips.drop_count sips,
      Flash.Sips.dup_count sips,
      Flash.Sips.delay_count sips,
      Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request )
  in
  let ((d, u, l, p) as a) = run () in
  Alcotest.(check bool) "drops happened" true (d > 0);
  Alcotest.(check bool) "dups happened" true (u > 0);
  Alcotest.(check bool) "delays happened" true (l > 0);
  Alcotest.(check int) "deliveries = sends - drops + dups" (sent - d + u) p;
  let b = run () in
  Alcotest.(check bool) "identical runs do identical damage" true (a = b)

let test_degradation_window_expires () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          Flash.Sips.degrade sips ~rng:(Sim.Prng.create 5)
            {
              Flash.Sips.deg_from = -1;
              deg_to = 1;
              from_ns = 0L;
              until_ns = 1_000L;
              drop_pct = 100;
              dup_pct = 0;
              delay_pct = 0;
              max_delay_ns = 0L;
            };
          Sim.Engine.delay 2_000L;
          (* Window over: traffic passes untouched. *)
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:8 (Obj.magic 0);
          Sim.Engine.delay 1_000_000L;
          Alcotest.(check int) "nothing dropped after expiry" 0
            (Flash.Sips.drop_count sips);
          Alcotest.(check int) "message delivered" 1
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request)))

(* Regression: envelopes queued before a node failure must not be replayed
   into the rebooted kernel — restore_node purges both receive queues. *)
let test_restore_purges_prefailure_envelopes () =
  with_machine (fun eng m ->
      let sips = Flash.Machine.sips m in
      in_thread eng (fun () ->
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Request
            ~size:8 (Obj.magic 0);
          Flash.Sips.send sips ~from_proc:0 ~to_node:1 ~kind:Flash.Sips.Reply
            ~size:8 (Obj.magic 0);
          (* Let both deliveries land in the (unread) receive queues. *)
          Sim.Engine.delay 1_000_000L;
          Alcotest.(check int) "request queued pre-failure" 1
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request);
          Flash.Machine.fail_node m 1;
          Flash.Machine.restore_node m 1;
          Alcotest.(check int) "request queue purged" 0
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Request);
          Alcotest.(check int) "reply queue purged" 0
            (Flash.Sips.pending sips ~node:1 ~kind:Flash.Sips.Reply);
          Alcotest.(check int) "purged envelopes counted" 2
            (Flash.Sips.stale_purged_count sips)))

let qcheck_firewall_vector_roundtrip =
  QCheck.Test.make ~name:"firewall grant/revoke tracks exact processor sets"
    ~count:200
    QCheck.(pair (int_bound 1) (list_of_size Gen.(0 -- 6) (int_bound 1)))
    (fun (pfn_node, grants) ->
      let fw = Flash.Firewall.create cfg in
      let pfn = pfn_node * cfg.Flash.Config.mem_pages_per_node in
      let by = pfn_node in
      List.iter (fun p -> Flash.Firewall.grant fw ~by ~pfn ~proc:p) grants;
      List.for_all
        (fun p ->
          Flash.Firewall.allowed fw ~pfn ~proc:p = List.mem p grants
          || List.mem p grants)
        [ 0; 1 ])

let qcheck_memory_roundtrip =
  QCheck.Test.make ~name:"memory write/read roundtrip preserves bytes"
    ~count:100
    QCheck.(pair (int_bound 200) string)
    (fun (off, s) ->
      QCheck.assume (String.length s > 0 && String.length s <= 256);
      let eng = Sim.Engine.create () in
      let m = Flash.Machine.create eng cfg in
      let ok = ref false in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             let mem = Flash.Machine.memory m in
             let fw = Flash.Machine.firewall m in
             Flash.Firewall.grant fw ~by:0 ~pfn:0 ~proc:0;
             Flash.Firewall.grant fw ~by:0 ~pfn:1 ~proc:0;
             Flash.Memory.write eng mem ~by:0 off (Bytes.of_string s);
             let back = Flash.Memory.read eng mem ~by:0 off (String.length s) in
             ok := Bytes.to_string back = s));
      Sim.Engine.run eng;
      !ok)

(* Run [body] in a simulation thread of a fresh machine; returns its
   result and the simulated time it took. *)
let timed_in_machine body =
  let eng = Sim.Engine.create () in
  let m = Flash.Machine.create eng cfg in
  let out = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let t0 = Sim.Engine.now eng in
         let r = body eng m in
         out := Some (r, Int64.sub (Sim.Engine.now eng) t0)));
  Sim.Engine.run eng;
  Option.get !out

(* Ranges over the first three pages of node 0, so they cross page
   boundaries and touch pages that were never written. *)
let gen_range =
  QCheck.Gen.(pair (int_bound ((3 * page) - 1)) (int_bound (2 * page)))

let qcheck_read_into_matches_read =
  QCheck.Test.make ~name:"memory read_into equals read" ~count:100
    QCheck.(
      make
        Gen.(
          triple
            (list_size (0 -- 3)
               (pair (int_bound (3 * page)) (string_size (1 -- 300))))
            gen_range (int_bound 16)))
    (fun (writes, (addr, len), dst_off) ->
      let setup m =
        List.iter
          (fun (off, s) ->
            Flash.Memory.poke (Flash.Machine.memory m) off (Bytes.of_string s))
          writes
      in
      let expect, t_read =
        timed_in_machine (fun eng m ->
            setup m;
            Flash.Memory.read eng (Flash.Machine.memory m) ~by:0 addr len)
      in
      let dst = Bytes.make (dst_off + len + 16) '\xff' in
      let (), t_into =
        timed_in_machine (fun eng m ->
            setup m;
            Flash.Memory.read_into eng (Flash.Machine.memory m) ~by:0 addr len
              dst dst_off)
      in
      Bytes.sub dst dst_off len = expect
      && Bytes.sub dst 0 dst_off = Bytes.make dst_off '\xff'
      && Bytes.sub dst (dst_off + len) 16 = Bytes.make 16 '\xff'
      && t_read = t_into)

let qcheck_write_sub_matches_write =
  QCheck.Test.make ~name:"memory write_sub equals write of Bytes.sub"
    ~count:100
    QCheck.(
      make Gen.(pair gen_range (pair (string_size (0 -- 64)) (int_bound 64))))
    (fun ((addr, len), (pad, src_off)) ->
      let src_off = min src_off (String.length pad) in
      let body = String.init len (fun i -> Char.chr (i land 0xff)) in
      let src = Bytes.of_string (pad ^ body ^ pad) in
      let grant m =
        for pfn = 0 to 4 do
          Flash.Firewall.grant (Flash.Machine.firewall m) ~by:0 ~pfn ~proc:0
        done
      in
      let store write =
        timed_in_machine (fun eng m ->
            grant m;
            let mem = Flash.Machine.memory m in
            write eng mem;
            (Flash.Memory.peek mem 0 (4 * page), Flash.Memory.stats mem))
      in
      store (fun eng mem ->
          Flash.Memory.write_sub eng mem ~by:0 addr src src_off len)
      = store (fun eng mem ->
            Flash.Memory.write eng mem ~by:0 addr (Bytes.sub src src_off len)))

(* A write that starts on a granted remote page and runs into an
   ungranted one must bounce before a single byte lands, exactly like
   [write]. *)
let qcheck_write_sub_denied_moves_nothing =
  QCheck.Test.make
    ~name:"memory write_sub denied by the firewall moves no byte" ~count:50
    QCheck.(make Gen.(pair (int_bound (page - 1)) (1 -- page)))
    (fun (inpage, extra) ->
      let base = Flash.Addr.addr_of_pfn remote_pfn in
      let addr = base + inpage and len = page - inpage + extra in
      let src = Bytes.make (len + 8) 'w' in
      let attempt write =
        fst
          (timed_in_machine (fun eng m ->
               let mem = Flash.Machine.memory m in
               Flash.Memory.poke mem base (Bytes.make (2 * page) 'o');
               Flash.Firewall.grant (Flash.Machine.firewall m) ~by:1
                 ~pfn:remote_pfn ~proc:0;
               let raised =
                 match write eng mem with
                 | () -> None
                 | exception Flash.Memory.Bus_error { addr; cause } ->
                   Some (addr, cause)
               in
               ( raised,
                 Flash.Memory.peek mem base (2 * page),
                 Flash.Memory.stats mem )))
      in
      let raised, after, stats =
        attempt (fun eng mem ->
            Flash.Memory.write_sub eng mem ~by:0 addr src 8 len)
      in
      raised = Some (addr, Flash.Memory.Firewall_denied)
      && after = Bytes.make (2 * page) 'o'
      && (raised, after, stats)
         = attempt (fun eng mem ->
               Flash.Memory.write eng mem ~by:0 addr (Bytes.sub src 8 len)))

let suite =
  [
    Alcotest.test_case "address mapping" `Quick test_addr_mapping;
    Alcotest.test_case "firewall changes are local-processor-only" `Quick
      test_firewall_local_only;
    Alcotest.test_case "firewall grant/revoke" `Quick test_firewall_grant_revoke;
    Alcotest.test_case "large-machine configs and geometry validated" `Quick
      test_config_large_machines;
    Alcotest.test_case "firewall masked page scan" `Quick
      test_firewall_pages_writable_by_mask;
    Alcotest.test_case "firewall writable_by scan" `Quick
      test_firewall_writable_by;
    Alcotest.test_case "write requires firewall permission" `Quick
      test_memory_write_requires_firewall;
    Alcotest.test_case "local write after self-grant" `Quick
      test_memory_local_write_allowed;
    Alcotest.test_case "failed node gives bus errors" `Quick
      test_memory_failed_node_bus_error;
    Alcotest.test_case "memory cutoff refuses remote only" `Quick
      test_memory_cutoff;
    Alcotest.test_case "read latency = one miss per line" `Quick
      test_memory_read_latency;
    Alcotest.test_case "write latency includes firewall check" `Quick
      test_memory_write_latency_includes_firewall_check;
    Alcotest.test_case "wild writes bounce off the firewall" `Quick
      test_wild_write_honours_firewall;
    Alcotest.test_case "sips roundtrip" `Quick test_sips_roundtrip;
    Alcotest.test_case "sips size cap" `Quick test_sips_latency_and_size;
    Alcotest.test_case "sips to failed node raises" `Quick
      test_sips_to_failed_node;
    Alcotest.test_case "cpu FIFO occupancy" `Quick test_cpu_fifo;
    Alcotest.test_case "cpu interrupt stealing stretches bursts" `Quick
      test_cpu_interrupt_steals;
    Alcotest.test_case "halted cpu raises" `Quick test_cpu_halt;
    Alcotest.test_case "disk sequential faster than random" `Quick
      test_disk_sequential_faster;
    Alcotest.test_case "node failure listener" `Quick test_node_failure_listener;
    Alcotest.test_case "restore node zeroes memory" `Quick test_restore_node;
    Alcotest.test_case "sips degradation is deterministic" `Quick
      test_sips_degradation_deterministic;
    Alcotest.test_case "sips degradation window expires" `Quick
      test_degradation_window_expires;
    Alcotest.test_case "restore purges pre-failure envelopes" `Quick
      test_restore_purges_prefailure_envelopes;
    QCheck_alcotest.to_alcotest qcheck_firewall_vector_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_memory_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_read_into_matches_read;
    QCheck_alcotest.to_alcotest qcheck_write_sub_matches_write;
    QCheck_alcotest.to_alcotest qcheck_write_sub_denied_moves_nothing;
  ]
