(* Dedicated tests for the careful reference protocol (Section 4.1): every
   defense listed in the paper, exercised directly. *)

let with_sys f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
  f eng sys

(* Run [body] on a thread of cell [owner]; the test fails unless it
   returns. *)
let in_thread ?(owner = 0) sys body =
  let eng = sys.Hive.Types.eng in
  let returned = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"t" ~owner (fun () ->
         body ();
         returned := true));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  Alcotest.(check bool) "thread returned" true !returned

let reader sys = sys.Hive.Types.cells.(0)

let test_valid_read () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                Hive.Careful_ref.read_i64 ctx c1.Hive.Types.clock_addr)
          with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "valid careful read must succeed"))

let test_misaligned_pointer_defended () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                Hive.Careful_ref.read_i64 ctx (c1.Hive.Types.clock_addr + 3))
          with
          | Error (Hive.Careful_ref.Bad_pointer _) -> ()
          | _ -> Alcotest.fail "misaligned address must be defended"))

let test_wrong_cell_pointer_defended () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          (* Address in cell 0's range while expecting cell 1. *)
          let c0 = sys.Hive.Types.cells.(0) in
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                Hive.Careful_ref.read_i64 ctx c0.Hive.Types.clock_addr)
          with
          | Error (Hive.Careful_ref.Bad_pointer _) -> ()
          | _ -> Alcotest.fail "out-of-cell address must be defended"))

let test_invalid_address_defended () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                Hive.Careful_ref.read_i64 ctx 0x7FFFFFF8)
          with
          | Error (Hive.Careful_ref.Bad_pointer _) -> ()
          | _ -> Alcotest.fail "wild address must be defended"))

let test_bus_error_defended () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          Flash.Machine.fail_node sys.Hive.Types.machine 1;
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                Hive.Careful_ref.read_i64 ctx c1.Hive.Types.clock_addr)
          with
          | Error (Hive.Careful_ref.Bus_fault _) -> ()
          | _ -> Alcotest.fail "bus error must be defended, not panic"))

let test_bad_tag_defended () =
  with_sys (fun _eng sys ->
      let addr = ref 0 in
      in_thread ~owner:1 sys (fun () ->
          addr := Hive.Kmem.alloc sys ~tag:0xDEADL ~size:16);
      in_thread sys (fun () ->
          let addr = !addr in
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                Hive.Careful_ref.check_tag ctx ~addr ~expected:0xBEEFL)
          with
          | Error (Hive.Careful_ref.Bad_tag { expected = 0xBEEFL; found = 0xDEADL; _ })
            -> ()
          | _ -> Alcotest.fail "tag mismatch must be defended"))

let test_value_check_defended () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          match
            Hive.Careful_ref.protect sys ~target:1 (fun _ctx ->
                Hive.Careful_ref.fail_value "impossible state")
          with
          | Error (Hive.Careful_ref.Bad_value _) -> ()
          | _ -> Alcotest.fail "value check must be defended"))

let test_hop_backstop () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          match
            Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                (* A runaway traversal: read far more than any legitimate
                   structure contains. *)
                for _ = 1 to 300_000 do
                  ignore (Hive.Careful_ref.read_i64 ctx c1.Hive.Types.clock_addr)
                done)
          with
          | Error Hive.Careful_ref.Loop_detected -> ()
          | _ -> Alcotest.fail "runaway loop must hit the hop backstop"))

let test_reader_survives_and_counts () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = reader sys in
          Flash.Machine.fail_node sys.Hive.Types.machine 1;
          for _ = 1 to 5 do
            ignore
              (Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                   Hive.Careful_ref.read_i64 ctx
                     sys.Hive.Types.cells.(1).Hive.Types.clock_addr))
          done;
          Alcotest.(check bool) "reader cell alive after 5 defenses" true
            (Hive.Types.cell_alive c0);
          Alcotest.(check int) "defenses counted" 5
            (Sim.Stats.value c0.Hive.Types.counters "careful_ref.defended")))

let test_latency_close_to_paper () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          let t0 = Sim.Engine.time () in
          let n = 100 in
          for _ = 1 to n do
            ignore
              (Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                   Hive.Careful_ref.read_i64 ctx c1.Hive.Types.clock_addr))
          done;
          let avg_ns =
            Int64.to_float (Int64.sub (Sim.Engine.time ()) t0)
            /. float_of_int n
          in
          (* Paper: 1.16 us average including the 0.7 us cache miss. *)
          Alcotest.(check bool)
            (Printf.sprintf "avg %.0f ns within [1000, 1500]" avg_ns)
            true
            (avg_ns > 1000. && avg_ns < 1500.)))

(* Property: whatever corrupt pointer, bounds or tag value a remote cell
   serves up, the careful protocol converts it into a *typed* failure —
   an [Error reason] from [protect] — never an uncaught exception and
   never silent acceptance of a corrupt value. 1,000 seeded-random cases
   across the three corruption families. *)
let test_random_corrupt_values_always_typed_failure () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let rng = Sim.Prng.create 0xC0FFEE in
          let c1 = sys.Hive.Types.cells.(1) in
          let mem_end =
            sys.Hive.Types.mcfg.Flash.Config.nodes
            * Flash.Config.mem_bytes_per_node sys.Hive.Types.mcfg
          in
          let rejected = ref 0 in
          for i = 0 to 999 do
            let result =
              Hive.Careful_ref.protect sys ~target:1 (fun ctx ->
                  match i mod 3 with
                  | 0 ->
                    (* Misaligned pointer inside the right cell. *)
                    let addr =
                      c1.Hive.Types.clock_addr
                      + (8 * Sim.Prng.int rng 256)
                      + 1 + Sim.Prng.int rng 7
                    in
                    Hive.Careful_ref.read_i64 ctx addr
                  | 1 ->
                    (* Aligned pointer outside the expected cell: either
                       in cell 0's memory or off the end of RAM. *)
                    let addr =
                      if Sim.Prng.bool rng then 8 * Sim.Prng.int rng 512
                      else mem_end + (8 * Sim.Prng.int rng 100_000)
                    in
                    Hive.Careful_ref.read_i64 ctx addr
                  | _ ->
                    (* Valid pointer, corrupt type tag. The wax slot
                       holds 0 with wax disabled, so any nonzero expected
                       tag must be rejected. *)
                    let addr = c1.Hive.Types.wax_slot in
                    let expected =
                      Int64.of_int (1 + Sim.Prng.int rng 0xFFFFFF)
                    in
                    Hive.Careful_ref.check_tag ctx ~addr ~expected;
                    0L)
            in
            match result with
            | Error _ -> incr rejected
            | Ok v ->
              Alcotest.failf "case %d: corrupt value silently accepted (%Ld)"
                i v
          done;
          Alcotest.(check int) "all 1000 corrupt values rejected" 1000
            !rejected))

let suite =
  [
    Alcotest.test_case "valid remote read succeeds" `Quick test_valid_read;
    Alcotest.test_case "misaligned pointer defended" `Quick
      test_misaligned_pointer_defended;
    Alcotest.test_case "pointer outside expected cell defended" `Quick
      test_wrong_cell_pointer_defended;
    Alcotest.test_case "invalid physical address defended" `Quick
      test_invalid_address_defended;
    Alcotest.test_case "bus error defended (no panic)" `Quick
      test_bus_error_defended;
    Alcotest.test_case "structure tag mismatch defended" `Quick
      test_bad_tag_defended;
    Alcotest.test_case "sanity-check failure defended" `Quick
      test_value_check_defended;
    Alcotest.test_case "runaway traversal hits hop backstop" `Quick
      test_hop_backstop;
    Alcotest.test_case "reader survives repeated defenses" `Quick
      test_reader_survives_and_counts;
    Alcotest.test_case "latency near the paper's 1.16 us" `Quick
      test_latency_close_to_paper;
    Alcotest.test_case "1000 random corrupt values -> typed failures" `Quick
      test_random_corrupt_values_always_typed_failure;
  ]
