(* Clock monitoring (Sections 4.1 and 4.3): each cell's clock interrupt
   is one engine timer. Its word rises by exactly one per tick, also
   after a reboot; it hints a stalled or partitioned ring successor on
   the same ticks as when the monitor was a kernel thread; and an idle
   cell costs one engine event per tick. *)

let tick = Hive.Params.default.Hive.Params.tick_ns

let boot ?jitter ?(params = Hive.Params.default) ~ncells () =
  let eng = Sim.Engine.create () in
  Option.iter (fun seed -> Sim.Engine.set_jitter eng (Some (Sim.Prng.create seed))) jitter;
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells ~wax:false eng in
  (eng, sys)

let manual = { Hive.Params.default with Hive.Params.auto_reintegrate = false }

let word sys id =
  Flash.Memory.peek_i64
    (Flash.Machine.memory sys.Hive.Types.machine)
    sys.Hive.Types.cells.(id).Hive.Types.clock_addr

(* The words of [ids] sampled mid-period, once per tick from [from]. *)
let samples eng sys ~ids ~from ~n =
  List.init n (fun k ->
      Sim.Engine.run ~until:(Int64.add from (Int64.mul (Int64.of_int k) tick)) eng;
      List.map (word sys) ids)

let rises_by_one ss =
  let rec go = function
    | a :: (b :: _ as rest) ->
      List.for_all2 (fun x y -> Int64.sub y x = 1L) a b && go rest
    | _ -> true
  in
  go ss

let test_word_rises_one_per_tick () =
  let eng, sys = boot ~ncells:4 () in
  let ss = samples eng sys ~ids:[ 0; 1; 2; 3 ] ~from:5_000_000L ~n:30 in
  Alcotest.(check (list int64)) "no tick before the first period" [ 0L; 0L; 0L; 0L ]
    (List.hd ss);
  Alcotest.(check bool) "every word rises by one per tick" true (rises_by_one ss)

(* Cell 1 panics and reboots within one tick period, so its old record's
   timer is still queued when the new record's boot arms a timer of its
   own. Both would tick the same word; only the new one may. *)
let test_reintegrated_word_rises_one_per_tick () =
  let eng, sys = boot ~params:manual ~ncells:2 () in
  Sim.Engine.run ~until:53_000_000L eng;
  let old = sys.Hive.Types.cells.(1) in
  Hive.Panic.panic sys old "test";
  Alcotest.(check bool) "old timer still queued" true
    (Int64.compare old.Hive.Types.clock_due 53_000_000L > 0);
  Hive.System.reintegrate sys 1;
  let reborn = sys.Hive.Types.cells.(1) in
  Alcotest.(check bool) "a fresh record" true (reborn != old);
  let ss = samples eng sys ~ids:[ 0; 1 ] ~from:58_000_000L ~n:30 in
  Alcotest.(check (list int64)) "the reborn word starts over" [ 5L; 0L ] (List.hd ss);
  Alcotest.(check bool) "both words rise by one per tick" true (rises_by_one ss);
  Alcotest.(check bool) "reborn cell alive" true (Hive.Types.cell_alive reborn)

(* The first clock hint of each kind after a fault at 53 ms, as (tick,
   reporter, suspect, reason). With the kernel-thread monitor every
   case below hinted at tick 7 (70 ms): a frozen word is seen at ticks
   5, 6 and 7, and a bus error or partition timeout at ticks 6 and 7. *)
let clock_hints ?jitter ~victim kind =
  let eng, sys = boot ?jitter ~params:manual ~ncells:4 () in
  let hints = ref [] in
  let handler = sys.Hive.Types.on_hint in
  sys.Hive.Types.on_hint <-
    Some
      (fun c ~suspect ~reason ->
        if String.length reason >= 6 && String.sub reason 0 6 = "clock:" then
          hints :=
            ( Int64.to_int (Int64.div (Sim.Engine.now eng) tick),
              c.Hive.Types.cell_id, suspect, reason )
            :: !hints;
        Option.iter (fun f -> f c ~suspect ~reason) handler);
  let at = 53_000_000L in
  Sim.Engine.run ~until:at eng;
  (match kind with
  | `Stall -> Hive.System.inject_cpu_failure sys victim
  | `Partition ->
    let sips = Flash.Machine.sips sys.Hive.Types.machine in
    let until = Int64.add at 500_000_000L in
    Flash.Sips.partition sips
      { Flash.Sips.part_from = -1; part_to = victim; part_from_ns = at;
        part_until_ns = until };
    Flash.Sips.partition sips
      { Flash.Sips.part_from = victim; part_to = -1; part_from_ns = at;
        part_until_ns = until });
  Sim.Engine.run ~until:(Int64.add at 25_000_000L) eng;
  List.sort compare !hints

let hint_t = Alcotest.(list (pair int (pair int (pair int string))))

let flat = List.map (fun (t, r, s, why) -> (t, (r, (s, why))))

let test_stalled_peer_hinted () =
  List.iter
    (fun jitter ->
      for victim = 0 to 3 do
        Alcotest.check hint_t
          (Printf.sprintf "stalled cell %d" victim)
          [ (7, ((victim + 3) mod 4, (victim, "clock: stopped incrementing"))) ]
          (flat (clock_hints ?jitter ~victim `Stall))
      done)
    [ None; Some 7919 ]

let test_partitioned_peer_hinted () =
  List.iter
    (fun jitter ->
      for victim = 0 to 3 do
        let pred = (victim + 3) mod 4 and succ = (victim + 1) mod 4 in
        Alcotest.check hint_t
          (Printf.sprintf "partitioned cell %d" victim)
          (List.sort compare
             [ (7, (pred, (victim, "clock: unreachable")));
               (7, (victim, (succ, "clock: unreachable"))) ])
          (flat (clock_hints ?jitter ~victim `Partition))
      done)
    [ None; Some 7919 ]

(* Between the clock hand's 200 ms sweeps an idle 4-cell machine does
   nothing but tick: 19 ticks in (205 ms, 395 ms], one event each per
   cell. *)
let test_idle_tick_is_one_event () =
  let eng, _sys = boot ~ncells:4 () in
  Sim.Engine.run ~until:205_000_000L eng;
  let e0 = Sim.Engine.events_scheduled eng in
  Sim.Engine.run ~until:395_000_000L eng;
  Alcotest.(check int) "events per tick" (19 * 4)
    (Sim.Engine.events_scheduled eng - e0)

let suite =
  [
    Alcotest.test_case "word rises one per tick" `Quick
      test_word_rises_one_per_tick;
    Alcotest.test_case "reborn cell's word rises one per tick" `Quick
      test_reintegrated_word_rises_one_per_tick;
    Alcotest.test_case "stalled peer hinted at the same tick" `Quick
      test_stalled_peer_hinted;
    Alcotest.test_case "partitioned peer hinted at the same tick" `Quick
      test_partitioned_peer_hinted;
    Alcotest.test_case "idle cell: one event per tick" `Quick
      test_idle_tick_is_one_event;
  ]
