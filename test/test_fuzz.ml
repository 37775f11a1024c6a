(* Tests for the deterministic simulation fuzzer: seed replay is
   bit-for-bit, clean seeds report zero violations, and a deliberately
   planted containment bug is caught by the invariant checkers and shrunk
   to a minimal reproducer. *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_plan_of_seed_deterministic () =
  let a = Faultinj.Fuzz.plan_of_seed 42L in
  let b = Faultinj.Fuzz.plan_of_seed 42L in
  Alcotest.(check string) "same plan" (Faultinj.Fuzz.describe_plan a)
    (Faultinj.Fuzz.describe_plan b);
  let c = Faultinj.Fuzz.plan_of_seed 43L in
  Alcotest.(check bool) "different seeds differ" true
    (Faultinj.Fuzz.describe_plan a <> Faultinj.Fuzz.describe_plan c)

let test_replay_is_byte_identical () =
  let plan = Faultinj.Fuzz.plan_of_seed 2L in
  let a = Faultinj.Fuzz.record_to_json (Faultinj.Fuzz.run_plan plan) in
  let b = Faultinj.Fuzz.record_to_json (Faultinj.Fuzz.run_plan plan) in
  Alcotest.(check string) "two replays byte-identical" a b

let test_clean_seeds_zero_violations () =
  List.iter
    (fun seed ->
      let r = Faultinj.Fuzz.run_plan (Faultinj.Fuzz.plan_of_seed seed) in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld clean" seed)
        [] r.Faultinj.Fuzz.r_violations)
    [ 1L; 3L; 8L ]

(* Seeds whose derived plans include link-degradation windows — seed 16
   and 31 land theirs right inside a node-failure recovery round — must
   ride out the weather with zero violations: every message may be
   dropped, duplicated or delayed, but the kernels stay coherent. *)
let test_link_fault_seeds_clean () =
  List.iter
    (fun seed ->
      let p = Faultinj.Fuzz.plan_of_seed seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld has a link window" seed)
        true
        (contains (Faultinj.Fuzz.describe_plan p) "degrade link");
      let r = Faultinj.Fuzz.run_plan p in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld clean under link faults" seed)
        [] r.Faultinj.Fuzz.r_violations)
    [ 16L; 28L; 31L ]

(* The planted transport bug: reply-cache suppression off plus a
   duplication-heavy window makes retransmitted requests execute twice.
   The at-most-once checker must catch it, and the reproducer must shrink
   (the bug needs no scheduled faults at all, only the planted window). *)
let test_dup_bug_caught_and_shrunk () =
  let plan = Faultinj.Fuzz.plan_of_seed 28L in
  let r = Faultinj.Fuzz.run_plan ~plant:Faultinj.Fuzz.Dup_execution plan in
  Alcotest.(check bool) "duplicate execution detected" true
    (Faultinj.Fuzz.failed r);
  Alcotest.(check bool) "at-most-once checker named it" true
    (List.exists
       (fun v -> contains v "rpc-at-most-once")
       r.Faultinj.Fuzz.r_violations);
  let p', r' = Faultinj.Fuzz.shrink ~plant:Faultinj.Fuzz.Dup_execution plan in
  Alcotest.(check bool) "shrunk plan still fails" true (Faultinj.Fuzz.failed r');
  Alcotest.(check bool) "scheduled faults shrunk away" true
    (List.length p'.Faultinj.Fuzz.faults <= 1)

(* Seed 4 derives a plan whose fault lands; with [Unrecorded_grant] the
   harness then plants a firewall grant the kernel never recorded. The
   checkers must catch it, and shrinking must converge to at most two
   faults while still failing. *)
let test_demo_bug_caught_and_shrunk () =
  let plan = Faultinj.Fuzz.plan_of_seed 4L in
  let r =
    Faultinj.Fuzz.run_plan ~plant:Faultinj.Fuzz.Unrecorded_grant plan
  in
  Alcotest.(check bool) "planted bug detected" true (Faultinj.Fuzz.failed r);
  Alcotest.(check bool) "firewall checker named it" true
    (List.exists
       (fun v -> contains v "firewall")
       r.Faultinj.Fuzz.r_violations);
  let p', r' =
    Faultinj.Fuzz.shrink ~plant:Faultinj.Fuzz.Unrecorded_grant plan
  in
  Alcotest.(check bool) "shrunk plan still fails" true
    (Faultinj.Fuzz.failed r');
  Alcotest.(check bool) "shrunk to <= 2 faults" true
    (List.length p'.Faultinj.Fuzz.faults <= 2);
  Alcotest.(check bool) "jitter shrunk away" false p'.Faultinj.Fuzz.jitter

(* The parallel campaign driver shards seeds across domains but must
   merge records back in seed order, so its output is byte-identical to
   a serial sweep for any job count. *)
let test_parallel_campaign_matches_serial () =
  let seeds = Array.init 6 (fun i -> Int64.of_int (i + 1)) in
  let run s =
    Faultinj.Fuzz.record_to_json
      (Faultinj.Fuzz.run_plan (Faultinj.Fuzz.plan_of_seed s))
  in
  let serial = Array.to_list (Array.map run seeds) in
  let out = ref [] in
  Faultinj.Campaign.run_parallel ~jobs:4 ~seeds ~run
    ~on_record:(fun _ line -> out := line :: !out);
  Alcotest.(check (list string)) "4-domain merge byte-identical to serial"
    serial (List.rev !out)

let test_spawned_domains_clamped () =
  let spawned jobs seeds cpus =
    Faultinj.Campaign.spawned_domains ~jobs ~seeds ~cpus
  in
  Alcotest.(check int) "jobs 1 spawns none" 0 (spawned 1 100 8);
  Alcotest.(check int) "jobs 0 spawns none" 0 (spawned 0 100 8);
  Alcotest.(check int) "the caller is one of 4" 3 (spawned 4 100 8);
  Alcotest.(check int) "bounded by the cpus" 1 (spawned 64 100 2);
  Alcotest.(check int) "bounded by the seeds" 2 (spawned 8 3 8);
  Alcotest.(check int) "one cpu spawns none" 0 (spawned 4 100 1);
  Alcotest.(check int) "no seeds spawns none" 0 (spawned 4 0 8)

(* The [run_parallel] tests below use stand-in campaigns that sleep about
   a millisecond. Where a test needs both domains to take part, each
   waits (for at most 10 s) until the other has started a campaign, so
   the outcome does not hang on how fast a domain spawns. *)
let two_domains = Domain.recommended_domain_count () >= 2

let seeds k = Array.init k (fun i -> Int64.of_int (i + 1))

let await flag =
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get flag)) && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.0005
  done

let domain_id () = (Domain.self () :> int)

exception Boom of int64

let test_parallel_caller_is_a_worker () =
  let caller = domain_id () in
  let ran_on = Array.make 16 (-1) in
  let started = [| Atomic.make false; Atomic.make false |] in
  let run s =
    let me = domain_id () in
    let side = if me = caller then 0 else 1 in
    Atomic.set started.(side) true;
    if two_domains then await started.(1 - side);
    Unix.sleepf 0.001;
    ran_on.(Int64.to_int s - 1) <- me;
    s
  in
  Faultinj.Campaign.run_parallel ~jobs:2 ~seeds:(seeds 16) ~run
    ~on_record:(fun _ _ -> ());
  let ids = List.sort_uniq compare (Array.to_list ran_on) in
  Alcotest.(check int) "distinct domains" (if two_domains then 2 else 1)
    (List.length ids);
  Alcotest.(check bool) "the caller ran campaigns" true (List.mem caller ids)

let test_parallel_order_with_slow_caller () =
  let caller = domain_id () in
  let first = ref true in
  let run s =
    if domain_id () = caller && !first then begin
      first := false;
      Unix.sleepf 0.05
    end
    else Unix.sleepf 0.001;
    s
  in
  let out = ref [] in
  Faultinj.Campaign.run_parallel ~jobs:2 ~seeds:(seeds 16) ~run
    ~on_record:(fun s r ->
      Alcotest.(check int) "on_record runs on the caller" caller (domain_id ());
      Alcotest.(check int64) "record matches its seed" s r;
      out := s :: !out);
  Alcotest.(check (list int64)) "records in seed order"
    (Array.to_list (seeds 16)) (List.rev !out)

(* The caller raises on every seed from 5 on that it runs; the other
   domain holds any such seed until the caller has raised, so the caller
   is sure to run one. *)
let test_parallel_caller_exception_position () =
  let caller = domain_id () in
  let raised = Atomic.make false in
  let run s =
    if s >= 5L then
      if domain_id () = caller then begin
        Atomic.set raised true;
        raise (Boom s)
      end
      else await raised;
    Unix.sleepf 0.001;
    s
  in
  let out = ref [] in
  match
    Faultinj.Campaign.run_parallel ~jobs:2 ~seeds:(seeds 16) ~run
      ~on_record:(fun s _ -> out := s :: !out)
  with
  | () -> Alcotest.fail "the caller's exception was swallowed"
  | exception Boom k ->
    Alcotest.(check bool) "raised from a seed >= 5" true (k >= 5L);
    Alcotest.(check (list int64)) "every earlier record emitted"
      (List.init (Int64.to_int k - 1) (fun i -> Int64.of_int (i + 1)))
      (List.rev !out)

(* GC settings are the caller's own: a parallel run leaves them as it
   found them, whether it returns or raises. *)
let test_parallel_restores_gc () =
  let before = Gc.get () in
  let run s = if s = 3L then raise (Boom s) else s in
  let ignore_record _ _ = () in
  Faultinj.Campaign.run_parallel ~jobs:2 ~seeds:(seeds 2) ~run
    ~on_record:ignore_record;
  Alcotest.(check bool) "Gc settings unchanged after a return" true
    (Gc.get () = before);
  (match
     Faultinj.Campaign.run_parallel ~jobs:2 ~seeds:(seeds 4) ~run
       ~on_record:ignore_record
   with
  | () -> Alcotest.fail "expected the seed-3 exception"
  | exception Boom 3L -> ());
  Alcotest.(check bool) "Gc settings unchanged after a raise" true
    (Gc.get () = before)

let test_clean_plan_does_not_shrink () =
  let plan = Faultinj.Fuzz.plan_of_seed 1L in
  match Faultinj.Fuzz.shrink plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shrinking a passing plan must be rejected"

let suite =
  [
    Alcotest.test_case "plan derivation is deterministic" `Quick
      test_plan_of_seed_deterministic;
    Alcotest.test_case "seed replay is byte-identical" `Slow
      test_replay_is_byte_identical;
    Alcotest.test_case "clean seeds report zero violations" `Slow
      test_clean_seeds_zero_violations;
    Alcotest.test_case "link-fault seeds stay clean" `Slow
      test_link_fault_seeds_clean;
    Alcotest.test_case "planted duplicate-execution bug caught and shrunk"
      `Slow test_dup_bug_caught_and_shrunk;
    Alcotest.test_case "planted containment bug caught and shrunk" `Slow
      test_demo_bug_caught_and_shrunk;
    Alcotest.test_case "parallel campaign merge matches serial" `Slow
      test_parallel_campaign_matches_serial;
    Alcotest.test_case "parallel spawn count is clamped" `Quick
      test_spawned_domains_clamped;
    Alcotest.test_case "parallel caller is a worker" `Quick
      test_parallel_caller_is_a_worker;
    Alcotest.test_case "parallel records in order behind a slow caller"
      `Quick test_parallel_order_with_slow_caller;
    Alcotest.test_case "parallel caller exception keeps its position" `Quick
      test_parallel_caller_exception_position;
    Alcotest.test_case "parallel run leaves the caller's Gc settings"
      `Quick test_parallel_restores_gc;
    Alcotest.test_case "shrink rejects passing plans" `Slow
      test_clean_plan_does_not_shrink;
  ]
