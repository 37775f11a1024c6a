(* Tests for the discrete-event engine and synchronization primitives. *)

let check_i64 = Alcotest.(check int64)

let run_sim f =
  let eng = Sim.Engine.create () in
  f eng;
  Sim.Engine.run eng;
  eng

let test_clock_advances () =
  let trace = ref [] in
  let eng =
    run_sim (fun eng ->
        ignore
          (Sim.Engine.spawn eng ~name:"a" (fun () ->
               Sim.Engine.delay 100L;
               trace := ("a", Sim.Engine.time ()) :: !trace;
               Sim.Engine.delay 50L;
               trace := ("a2", Sim.Engine.time ()) :: !trace)))
  in
  check_i64 "final time" 150L (Sim.Engine.now eng);
  Alcotest.(check (list (pair string int64)))
    "trace" [ ("a", 100L); ("a2", 150L) ] (List.rev !trace)

let test_deterministic_order () =
  let order = ref [] in
  let eng = Sim.Engine.create () in
  for i = 1 to 5 do
    ignore
      (Sim.Engine.spawn eng ~name:(string_of_int i) (fun () ->
           Sim.Engine.delay 10L;
           order := i :: !order))
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "spawn order preserved at ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_spawn_at () =
  let t = ref 0L in
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~at:500L (fun () -> t := Sim.Engine.time ()));
  Sim.Engine.run eng;
  check_i64 "starts at 500" 500L !t

let test_kill_unwinds () =
  let cleaned = ref false in
  let reached = ref false in
  let eng = Sim.Engine.create () in
  let victim =
    Sim.Engine.spawn eng ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Sim.Engine.delay 1000L;
            reached := true))
  in
  ignore
    (Sim.Engine.spawn eng ~name:"killer" (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.kill eng victim));
  Sim.Engine.run eng;
  Alcotest.(check bool) "cleanup ran" true !cleaned;
  Alcotest.(check bool) "body did not complete" false !reached;
  check_i64 "killed promptly, not at 1000" 10L (Sim.Engine.now eng)

let test_kill_before_start () =
  let ran = ref false in
  let eng = Sim.Engine.create () in
  let victim = Sim.Engine.spawn eng (fun () -> ran := true) in
  Sim.Engine.kill eng victim;
  Sim.Engine.run eng;
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check int) "no live threads" 0 (Sim.Engine.live_threads eng)

let test_run_until () =
  let count = ref 0 in
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for _ = 1 to 100 do
           Sim.Engine.delay 10L;
           incr count
         done));
  Sim.Engine.run ~until:55L eng;
  Alcotest.(check int) "five ticks by t=55" 5 !count;
  check_i64 "clock clamped" 55L (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "completes later" 100 !count

(* A delay whose wake-up would be the next event runs inline (no queue
   round trip) only within the running [run ~until]: a wake time past the
   bound must stop the clock at the bound, exactly as a queued wake-up
   would, and a wake time equal to the bound still runs. *)
let test_delay_past_until_stops_at_until () =
  let eng = Sim.Engine.create () in
  let seen = ref [] in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         List.iter
           (fun d ->
             Sim.Engine.delay d;
             seen := Sim.Engine.time () :: !seen)
           [ 100L; 400L; 1000L ]));
  Sim.Engine.run ~until:500L eng;
  Alcotest.(check (list int64)) "wake at the bound runs" [ 500L; 100L ] !seen;
  check_i64 "clock at the bound" 500L (Sim.Engine.now eng);
  Sim.Engine.run ~until:1499L eng;
  Alcotest.(check int) "wake past the bound waits" 2 (List.length !seen);
  check_i64 "clock clamped again" 1499L (Sim.Engine.now eng);
  Alcotest.(check (option int64)) "wake-up still queued" (Some 1500L)
    (Sim.Engine.next_event_time eng);
  Sim.Engine.run eng;
  Alcotest.(check (list int64)) "then completes" [ 1500L; 500L; 100L ] !seen

(* Inline wake-ups consume a sequence number like queued ones, so
   [events_scheduled] and every later same-time tie-break are unchanged:
   at t=50 the wake-up scheduled first (b's, at t=25) runs first. *)
let test_inline_wakeups_keep_tie_breaks () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let note name = order := (name, Sim.Engine.time ()) :: !order in
  ignore
    (Sim.Engine.spawn eng ~name:"a" (fun () ->
         for _ = 1 to 5 do
           Sim.Engine.delay 10L;
           note "a"
         done));
  ignore
    (Sim.Engine.spawn eng ~name:"b" (fun () ->
         for _ = 1 to 2 do
           Sim.Engine.delay 25L;
           note "b"
         done));
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int64)))
    "interleaving"
    [ ("a", 10L); ("a", 20L); ("b", 25L); ("a", 30L); ("a", 40L); ("b", 50L);
      ("a", 50L) ]
    (List.rev !order);
  (* two spawns + seven delays *)
  Alcotest.(check int) "every wake-up counted" 9
    (Sim.Engine.events_scheduled eng);
  let lone = Sim.Engine.create () in
  ignore
    (Sim.Engine.spawn lone (fun () ->
         for _ = 1 to 1000 do
           Sim.Engine.delay 3L
         done));
  Sim.Engine.run lone;
  check_i64 "a lone thread's delays all elapse" 3000L (Sim.Engine.now lone);
  Alcotest.(check int) "a lone thread's wake-ups counted" 1001
    (Sim.Engine.events_scheduled lone)

(* A killed thread gets [Killed] from [delay], whether it was killed while
   parked in a delay or before it calls one. *)
let test_killed_thread_delay_raises () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note s = log := (s, Sim.Engine.time ()) :: !log in
  let victim =
    Sim.Engine.spawn eng ~name:"victim" (fun () ->
        try
          Sim.Engine.delay 1000L;
          note "victim woke"
        with Sim.Engine.Killed ->
          note "victim killed";
          raise Sim.Engine.Killed)
  in
  ignore
    (Sim.Engine.spawn eng ~name:"suicide" (fun () ->
         Sim.Engine.delay 5L;
         Sim.Engine.kill eng (Sim.Engine.current eng);
         try
           Sim.Engine.delay 1L;
           note "suicide woke"
         with Sim.Engine.Killed ->
           note "suicide killed";
           raise Sim.Engine.Killed));
  ignore
    (Sim.Engine.spawn eng ~name:"killer" (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.kill eng victim));
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int64)))
    "both unwound from delay"
    [ ("suicide killed", 5L); ("victim killed", 10L) ]
    (List.rev !log);
  Alcotest.(check int) "no live threads" 0 (Sim.Engine.live_threads eng)

let test_crash_handler () =
  let eng = Sim.Engine.create () in
  let got = ref "" in
  Sim.Engine.set_crash_handler eng (fun thr e ->
      got := thr.Sim.Engine.name ^ ":" ^ Printexc.to_string e);
  ignore (Sim.Engine.spawn eng ~name:"boom" (fun () -> failwith "bad"));
  Sim.Engine.run eng;
  Alcotest.(check string) "handler saw it" "boom:Failure(\"bad\")" !got

let test_timer_cancel () =
  let fired = ref false in
  let eng = Sim.Engine.create () in
  let tm = Sim.Engine.timer eng ~after:100L (fun () -> fired := true) in
  Sim.Engine.cancel tm;
  Sim.Engine.run eng;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_ivar_basic () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Ivar.create () in
  let got = ref 0 in
  ignore
    (Sim.Engine.spawn eng (fun () -> got := Sim.Ivar.read_exn eng iv));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 42L;
         Sim.Ivar.fill eng iv 7));
  Sim.Engine.run eng;
  Alcotest.(check int) "value" 7 !got;
  check_i64 "waited" 42L (Sim.Engine.now eng)

let test_ivar_timeout () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Ivar.create () in
  let got = ref (Some 1) in
  ignore
    (Sim.Engine.spawn eng (fun () -> got := Sim.Ivar.read ~timeout:100L eng iv));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !got;
  check_i64 "at timeout" 100L (Sim.Engine.now eng)

let test_ivar_fill_after_timeout () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Ivar.create () in
  let first = ref (Some 0) and second = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         first := Sim.Ivar.read ~timeout:10L eng iv));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 50L;
         Sim.Ivar.fill eng iv 9;
         second := Sim.Ivar.read eng iv));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "first timed out" None !first;
  Alcotest.(check (option int)) "late fill readable" (Some 9) !second

let test_mailbox_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref [] in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for _ = 1 to 3 do
           got := Option.get (Sim.Mailbox.receive eng mb) :: !got
         done));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         List.iter
           (fun x ->
             Sim.Engine.delay 5L;
             Sim.Mailbox.send eng mb x)
           [ 1; 2; 3 ]));
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout_then_send () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let r1 = ref (Some 0) and r2 = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         r1 := Sim.Mailbox.receive ~timeout:10L eng mb));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 20L;
         Sim.Mailbox.send eng mb 5;
         (* Message must not be lost to the timed-out waiter. *)
         r2 := Sim.Mailbox.try_receive mb));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !r1;
  Alcotest.(check (option int)) "message preserved" (Some 5) !r2

let test_mutex_exclusion () =
  let eng = Sim.Engine.create () in
  let m = Sim.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Mutex.with_lock eng m (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sim.Engine.delay 10L;
               decr inside)))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  check_i64 "serialized" 40L (Sim.Engine.now eng)

let test_mutex_killed_holder_releases () =
  let eng = Sim.Engine.create () in
  let m = Sim.Mutex.create () in
  let second_got_lock = ref false in
  let holder =
    Sim.Engine.spawn eng (fun () ->
        Sim.Mutex.with_lock eng m (fun () -> Sim.Engine.delay 1000L))
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 5L;
         Sim.Mutex.lock eng m;
         second_got_lock := true));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Sim.Engine.kill eng holder));
  Sim.Engine.run eng;
  Alcotest.(check bool) "lock released by kill" true !second_got_lock

let test_semaphore_limits () =
  let eng = Sim.Engine.create () in
  let s = Sim.Semaphore.create 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Semaphore.acquire eng s;
           incr inside;
           if !inside > !max_inside then max_inside := !inside;
           Sim.Engine.delay 10L;
           decr inside;
           Sim.Semaphore.release eng s))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "at most 2 inside" 2 !max_inside;
  check_i64 "three waves" 30L (Sim.Engine.now eng)

let test_barrier_releases_all () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 3 in
  let released = ref [] in
  for i = 1 to 3 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Engine.delay (Int64.of_int (i * 10));
           Sim.Barrier.await eng b;
           released := (i, Sim.Engine.time ()) :: !released))
  done;
  Sim.Engine.run eng;
  List.iter
    (fun (_, t) -> check_i64 "all released when last arrives" 30L t)
    !released;
  Alcotest.(check int) "all three" 3 (List.length !released)

let test_barrier_cyclic () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 2 in
  let rounds = ref 0 in
  for _ = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           for _ = 1 to 3 do
             Sim.Engine.delay 1L;
             Sim.Barrier.await eng b
           done;
           incr rounds))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "both finished 3 rounds" 2 !rounds

let test_barrier_abort_releases_waiters () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 3 in
  let outcomes = ref [] in
  for i = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Engine.delay (Int64.of_int i);
           let o = Sim.Barrier.await_abortable eng b in
           outcomes := o :: !outcomes))
  done;
  (* The third party never arrives; abort instead of deadlocking. *)
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Sim.Barrier.abort eng b));
  Sim.Engine.run eng;
  Alcotest.(check int) "both waiters released" 2 (List.length !outcomes);
  Alcotest.(check bool) "both saw Aborted" true
    (List.for_all (fun o -> o = Sim.Barrier.Aborted) !outcomes);
  (* Abort is sticky: late arrivals are turned away immediately. *)
  let late = ref None in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         late := Some (Sim.Barrier.await_abortable eng b)));
  Sim.Engine.run eng;
  Alcotest.(check bool) "late arrival sees Aborted" true
    (!late = Some Sim.Barrier.Aborted)

let test_barrier_remove_party () =
  let eng = Sim.Engine.create () in
  let b = Sim.Barrier.create 3 in
  let released = ref 0 in
  for i = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Engine.delay (Int64.of_int i);
           match Sim.Barrier.await_abortable eng b with
           | Sim.Barrier.Released -> incr released
           | Sim.Barrier.Aborted -> ()))
  done;
  (* The third participant dies; shrinking the party count must release
     the two already waiting. *)
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.delay 10L;
         Sim.Barrier.remove_party eng b));
  Sim.Engine.run eng;
  Alcotest.(check int) "both released by the shrink" 2 !released;
  Alcotest.(check int) "parties now 2" 2 (Sim.Barrier.parties b);
  (* Shrinking the last party degenerates to an abort. *)
  let b2 = Sim.Barrier.create 1 in
  Sim.Barrier.remove_party eng b2;
  Alcotest.(check bool) "single-party shrink aborts" true
    (Sim.Barrier.aborted b2)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next a) (Sim.Prng.next b)
  done

(* The streams are simulated behaviour (every seeded run draws from
   them): the first outputs of each constructor are pinned to the values
   the boxed-int64 implementation produced. *)
let test_prng_streams_pinned () =
  let first3 t =
    let a = Sim.Prng.next t in
    let b = Sim.Prng.next t in
    let c = Sim.Prng.next t in
    [ a; b; c ]
  in
  let check name expected t =
    Alcotest.(check (list int64)) name expected (first3 t)
  in
  check "create 0"
    [ -6857991956181131349L; 2390929868299326358L; 8920718928553157194L ]
    (Sim.Prng.create 0);
  check "create 42"
    [ -1573925701903764324L; -3271377768046748664L; -20277184320630975L ]
    (Sim.Prng.create 42);
  check "create 7919"
    [ -6397650582687730092L; 606158266847079201L; 1571280672410950636L ]
    (Sim.Prng.create 7919);
  check "create -5"
    [ -1512607112833208943L; -5647216518346693199L; -1786878403230641106L ]
    (Sim.Prng.create (-5));
  check "of_int64 1"
    [ -4488756827901039165L; -246335909516778964L; -2042161392455975611L ]
    (Sim.Prng.of_int64 1L);
  check "of_int64 0x9a4e"
    [ 5230013876419725034L; -2191988817839084782L; -198781150851036332L ]
    (Sim.Prng.of_int64 0x9a4eL);
  check "of_int64 min_int"
    [ -6909073024852531054L; 4910966739185119955L; 5789609541136190516L ]
    (Sim.Prng.of_int64 Int64.min_int);
  let t = Sim.Prng.create 7 in
  let a = Sim.Prng.int t 8 in
  let b = Sim.Prng.int t 1000 in
  let c = Sim.Prng.int t 3 in
  let f = Sim.Prng.float t in
  let g = Sim.Prng.int64 t 1_000_000_000_000L in
  Alcotest.(check (list int)) "int draws" [ 1; 407; 1 ] [ a; b; c ];
  Alcotest.(check (float 0.)) "float draw" 0x1.76208461c334ap-1 f;
  Alcotest.(check int64) "int64 draw" 753350187590L g

let heap_push h ~time ~seq v =
  Sim.Heap.push_key h ~key:(Sim.Heap.key_of_time time) ~seq v

(* Pop every entry, oldest key first: [(time, payload)] pairs. *)
let drain_heap h =
  let rec go acc =
    if Sim.Heap.is_empty h then List.rev acc
    else begin
      let e = (Sim.Heap.top_time h, Sim.Heap.top h) in
      Sim.Heap.drop_top h;
      go (e :: acc)
    end
  in
  go []

let qcheck_heap_ordered =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i t -> heap_push h ~time:(Int64.of_int t) ~seq:i i)
        times;
      (* payload [i] was pushed with [seq = i] *)
      let popped = drain_heap h in
      let times = Array.of_list times in
      List.length popped = Array.length times
      && List.for_all (fun (t, i) -> t = Int64.of_int times.(i)) popped
      && List.sort compare popped = popped)

let qcheck_heap_filter_preserves_order =
  QCheck.Test.make
    ~name:"heap filter drops exactly the marked entries, order intact"
    ~count:200
    QCheck.(list (pair (int_bound 1000) bool))
    (fun spec ->
      let entries = List.mapi (fun i (t, b) -> (Int64.of_int t, i, b)) spec in
      let h = Sim.Heap.create () in
      List.iter (fun (t, i, _) -> heap_push h ~time:t ~seq:i i) entries;
      let keep = Array.of_list (List.map (fun (_, _, b) -> b) entries) in
      Sim.Heap.filter h (fun i -> keep.(i));
      let expected =
        List.filter_map (fun (t, i, b) -> if b then Some (t, i) else None)
          entries
        |> List.sort compare |> List.map snd
      in
      List.map snd (drain_heap h) = expected)

(* The engine's key for sequence number [s] under jitter draw [r]: the
   same function [Engine] applies, so the tests below push unique keys
   that collide in their perturbed bits as often as the engine's do. *)
let jittered_key s r = ((s lxor r) lsl 3) lor (s land 7)

type heap_op = Push of int * int | Pop | Filter of int

(* Times are drawn from a tiny space (8 instants) so that most pushes
   land on an instant already queued and the key decides. *)
let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun t r -> Push (t, r)) (int_bound 7) (int_bound 7));
        (3, return Pop);
        (1, map (fun m -> Filter m) (int_range 2 5)) ])

let show_heap_op = function
  | Push (t, r) -> Printf.sprintf "push(%d,%d)" t r
  | Pop -> "pop"
  | Filter m -> Printf.sprintf "filter(mod %d)" m

let qcheck_heap_matches_sorted_list =
  QCheck.Test.make ~name:"heap matches a sorted list" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 400) heap_op_gen))
    (fun ops ->
      let h = Sim.Heap.create () in
      (* the model: (time, key, id), sorted; ids are unique payloads *)
      let model = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let pop_both () =
        match !model with
        | [] -> expect (Sim.Heap.is_empty h)
        | (time, key, id) :: rest ->
          model := rest;
          expect
            ((not (Sim.Heap.is_empty h))
            && Sim.Heap.top h = id
            && Sim.Heap.top_time h = Int64.of_int time
            && Sim.Heap.top_seq h = key);
          if not (Sim.Heap.is_empty h) then Sim.Heap.drop_top h
      in
      List.iteri
        (fun id op ->
          (match op with
          | Push (t, r) ->
            let time = t * 1000 and key = jittered_key id r in
            model := List.merge compare [ (time, key, id) ] !model;
            heap_push h ~time:(Int64.of_int time) ~seq:key id
          | Pop -> pop_both ()
          | Filter md ->
            let keep id = id mod md <> 0 in
            let seen = ref 0 in
            Sim.Heap.filter h (fun id ->
                incr seen;
                keep id);
            expect (!seen = List.length !model);
            model := List.filter (fun (_, _, id) -> keep id) !model);
          expect (Sim.Heap.length h = List.length !model);
          expect (Sim.Heap.capacity h >= Sim.Heap.length h))
        ops;
      while !model <> [] do
        pop_both ()
      done;
      expect (Sim.Heap.is_empty h);
      !ok)

(* A random thread program for the engine property below. Delays, timer
   and timeout lengths are multiples of 100 ns from a tiny range, so many
   events share an instant and their keys decide the order. *)
type eng_op =
  | Op_delay of int
  | Op_timer of int
  | Op_cancel  (** cancel this thread's latest uncancelled timer *)
  | Op_send of int  (** to thread [j mod n]'s mailbox *)
  | Op_recv of int option  (** receive, with an optional timeout *)

let eng_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun d -> Op_delay d) (int_bound 3));
        (2, map (fun d -> Op_timer d) (int_bound 3));
        (1, return Op_cancel);
        (2, map (fun j -> Op_send j) (int_bound 3));
        (2, map (fun t -> Op_recv t) (opt (int_range 1 3))) ])

let show_eng_op = function
  | Op_delay d -> Printf.sprintf "delay %d" d
  | Op_timer d -> Printf.sprintf "timer %d" d
  | Op_cancel -> "cancel"
  | Op_send j -> Printf.sprintf "send %d" j
  | Op_recv None -> "recv"
  | Op_recv (Some d) -> Printf.sprintf "recv~%d" d

(* Each note is [(time, thread, what)]. *)
let run_on_engine jitter progs =
  let eng = Sim.Engine.create () in
  Option.iter
    (fun s -> Sim.Engine.set_jitter eng (Some (Sim.Prng.of_int64 s)))
    jitter;
  let n = Array.length progs in
  let boxes = Array.init n (fun _ -> Sim.Mailbox.create ()) in
  let trace = ref [] in
  let note i what = trace := (Sim.Engine.now eng, i, what) :: !trace in
  Array.iteri
    (fun i prog ->
      ignore
        (Sim.Engine.spawn eng (fun () ->
             let timers = ref [] in
             List.iteri
               (fun k op ->
                 match op with
                 | Op_delay d ->
                   Sim.Engine.delay (Int64.of_int (100 * d));
                   note i "woke"
                 | Op_timer d ->
                   timers :=
                     Sim.Engine.timer eng
                       ~after:(Int64.of_int (100 * d))
                       (fun () -> note i (Printf.sprintf "timer %d" k))
                     :: !timers
                 | Op_cancel -> (
                   match !timers with
                   | tm :: rest ->
                     Sim.Engine.cancel tm;
                     timers := rest
                   | [] -> ())
                 | Op_send j -> Sim.Mailbox.send eng boxes.(j mod n) (i, k)
                 | Op_recv timeout -> (
                   let timeout =
                     Option.map (fun d -> Int64.of_int (100 * d)) timeout
                   in
                   match Sim.Mailbox.receive ?timeout eng boxes.(i) with
                   | Some (from, k') -> note i (Printf.sprintf "got %d.%d" from k')
                   | None -> note i "timed out"))
               prog)))
    progs;
  Sim.Engine.run eng;
  (List.rev !trace, Sim.Engine.events_scheduled eng)

(* The reference: a sorted list of [(time, key)] events, with threads as
   explicit program counters instead of continuations, and the engine's
   key rule written out. It checks that each event pops as the unique
   smallest key queued at that moment. *)
module Reference = struct
  type ev = { time : int; key : int; mutable dead : bool; act : unit -> unit }

  type state = Running | Waiting of ev option | Resuming

  type thread = {
    mutable rest : (int * eng_op) list;
    mutable state : state;
    box : (int * int) Queue.t;
    mutable timers : ev list;
  }

  let run jitter progs =
    let prng = Option.map Sim.Prng.of_int64 jitter in
    let now = ref 0 and seq = ref 0 and queue = ref [] in
    let keys = Hashtbl.create 64 and ok = ref true in
    let trace = ref [] in
    let note i what = trace := (Int64.of_int !now, i, what) :: !trace in
    let schedule after act =
      incr seq;
      let key =
        match prng with
        | None -> !seq
        | Some p -> jittered_key !seq (Sim.Prng.int p 8)
      in
      if Hashtbl.mem keys key then ok := false;
      Hashtbl.replace keys key ();
      let e = { time = !now + after; key; dead = false; act } in
      let before a b = (a.time, a.key) < (b.time, b.key) in
      let rec ins = function
        | x :: rest when before x e -> x :: ins rest
        | l -> e :: l
      in
      queue := ins !queue;
      e
    in
    let n = Array.length progs in
    let threads =
      Array.map
        (fun prog ->
          { rest = List.mapi (fun k op -> (k, op)) prog;
            state = Running;
            box = Queue.create ();
            timers = [] })
        progs
    in
    let rec step i =
      let th = threads.(i) in
      match th.rest with
      | [] -> ()
      | (k, op) :: rest -> (
        th.rest <- rest;
        match op with
        | Op_delay 0 ->
          note i "woke";
          step i
        | Op_delay d ->
          ignore
            (schedule (100 * d) (fun () ->
                 note i "woke";
                 step i))
        | Op_timer d ->
          th.timers <-
            schedule (100 * d) (fun () -> note i (Printf.sprintf "timer %d" k))
            :: th.timers;
          step i
        | Op_cancel ->
          (match th.timers with
          | e :: rest ->
            e.dead <- true;
            th.timers <- rest
          | [] -> ());
          step i
        | Op_send j ->
          let j = j mod n in
          let dst = threads.(j) in
          (match dst.state with
          | Waiting timeout ->
            Option.iter (fun e -> e.dead <- true) timeout;
            dst.state <- Resuming;
            ignore
              (schedule 0 (fun () ->
                   dst.state <- Running;
                   note j (Printf.sprintf "got %d.%d" i k);
                   step j))
          | Running | Resuming -> Queue.push (i, k) dst.box);
          step i
        | Op_recv timeout -> (
          match Queue.take_opt th.box with
          | Some (from, k') ->
            note i (Printf.sprintf "got %d.%d" from k');
            step i
          | None ->
            let wake () =
              match th.state with
              | Waiting _ ->
                th.state <- Resuming;
                ignore
                  (schedule 0 (fun () ->
                       th.state <- Running;
                       note i "timed out";
                       step i))
              | Running | Resuming -> ()
            in
            th.state <-
              Waiting (Option.map (fun d -> schedule (100 * d) wake) timeout)))
    in
    Array.iteri (fun i _ -> ignore (schedule 0 (fun () -> step i))) threads;
    let rec loop () =
      match !queue with
      | [] -> ()
      | e :: rest ->
        (match rest with
        | next :: _ when (next.time, next.key) <= (e.time, e.key) ->
          ok := false
        | _ -> ());
        queue := rest;
        now := e.time;
        if not e.dead then e.act ();
        loop ()
    in
    loop ();
    (List.rev !trace, !seq, !ok)
end

let qcheck_engine_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (opt ~ratio:0.8 (map Int64.of_int int))
        (array_size (int_range 1 4) (list_size (int_range 0 30) eng_op_gen)))
  in
  let print (jitter, progs) =
    Printf.sprintf "jitter %s; %s"
      (match jitter with None -> "off" | Some s -> Int64.to_string s)
      (String.concat " | "
         (Array.to_list
            (Array.map
               (fun p -> String.concat ", " (List.map show_eng_op p))
               progs)))
  in
  QCheck.Test.make ~name:"engine order matches a reference"
    ~count:300 (QCheck.make ~print gen) (fun (jitter, progs) ->
      let trace, events = run_on_engine jitter progs in
      let ref_trace, ref_events, unique_min = Reference.run jitter progs in
      unique_min && events = ref_events && trace = ref_trace)

(* Draining a large heap must release its peak allocation: a long-lived
   engine should not pin the backing array of its largest campaign. *)
let test_heap_pop_releases_peak () =
  let h = Sim.Heap.create () in
  for i = 0 to 4095 do
    heap_push h ~time:(Int64.of_int (i land 63)) ~seq:i i
  done;
  let peak = Sim.Heap.capacity h in
  Alcotest.(check bool) "backing array grew" true (peak >= 4096);
  for _ = 1 to 4080 do
    Sim.Heap.drop_top h
  done;
  Alcotest.(check int) "survivors remain" 16 (Sim.Heap.length h);
  Alcotest.(check bool) "peak released" true (Sim.Heap.capacity h < peak / 4)

(* Cancelling timers must reclaim their queue entries eagerly (via heap
   compaction) instead of letting tombstones drain through pop at their
   original deadlines. *)
let test_cancelled_timers_compacted () =
  let eng = Sim.Engine.create () in
  let fired = ref 0 in
  let timers =
    List.init 100 (fun i ->
        Sim.Engine.timer eng
          ~after:(Int64.of_int (1000 + i))
          (fun () -> incr fired))
  in
  List.iteri (fun i tm -> if i < 90 then Sim.Engine.cancel tm) timers;
  Alcotest.(check bool) "dead entries reclaimed before their deadlines" true
    (Sim.Engine.cancelled_pending eng < 90);
  Sim.Engine.run eng;
  Alcotest.(check int) "surviving timers fired" 10 !fired;
  Alcotest.(check int) "queue fully drained" 0
    (Sim.Engine.cancelled_pending eng)

(* Engines are single-threaded by construction; parallel fuzz workers
   each own a private one. Driving an engine from another domain must be
   refused loudly, not corrupt the queue silently. *)
let test_foreign_domain_rejected () =
  let eng = Sim.Engine.create () in
  let verdict =
    Domain.spawn (fun () ->
        match Sim.Engine.spawn eng (fun () -> ()) with
        | _ -> "accepted"
        | exception Invalid_argument _ -> "rejected")
  in
  Alcotest.(check string) "cross-domain scheduling refused" "rejected"
    (Domain.join verdict);
  (* The owner can still use it afterwards. *)
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.delay 1L));
  Sim.Engine.run eng;
  check_i64 "owner unaffected" 1L (Sim.Engine.now eng)

(* The histogram bucket as first written: a boxed halving loop. *)
let bucket_of_ns_reference ns =
  if Int64.compare ns 1L <= 0 then 0
  else
    let rec log2 acc v =
      if Int64.compare v 1L <= 0 then acc
      else log2 (acc + 1) (Int64.shift_right_logical v 1)
    in
    min 63 (log2 0 ns)

let qcheck_bucket_of_ns_matches_reference =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map Int64.of_int (int_range (-3) 1);
          oneofl [ Int64.min_int; Int64.max_int ];
          map (fun k -> Int64.shift_left 1L k) (int_range 0 63);
          map (fun k -> Int64.pred (Int64.shift_left 1L k)) (int_range 1 63);
          map (fun k -> Int64.succ (Int64.shift_left 1L k)) (int_range 1 62);
          map (fun x -> Int64.logor x 0x4000_0000_0000_0000L) int64;
          int64;
        ])
  in
  QCheck.Test.make ~name:"histogram bucket equals the halving loop" ~count:1000
    (QCheck.make ~print:Int64.to_string gen)
    (fun ns -> Sim.Stats.bucket_of_ns ns = bucket_of_ns_reference ns)

let qcheck_prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Sim.Prng.create seed in
      let x = Sim.Prng.int g bound in
      x >= 0 && x < bound)

(* [int]'s power-of-two shortcut must draw what the remainder does. *)
let qcheck_prng_int_matches_remainder =
  QCheck.Test.make ~name:"prng int equals the 64-bit remainder" ~count:500
    QCheck.(pair int (int_range 0 62))
    (fun (seed, k) ->
      let reference g bound =
        Int64.to_int
          (Int64.rem
             (Int64.shift_right_logical (Sim.Prng.next g) 1)
             (Int64.of_int bound))
      in
      List.for_all
        (fun bound ->
          bound <= 0
          || Sim.Prng.int (Sim.Prng.create seed) bound
             = reference (Sim.Prng.create seed) bound)
        [ 1 lsl k; (1 lsl k) + 1; (1 lsl k) - 1 ])

let qcheck_mailbox_preserves_messages =
  QCheck.Test.make ~name:"mailbox delivers every message exactly once"
    ~count:100
    QCheck.(list small_nat)
    (fun msgs ->
      let eng = Sim.Engine.create () in
      let mb = Sim.Mailbox.create () in
      let got = ref [] in
      let n = List.length msgs in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             for _ = 1 to n do
               got := Option.get (Sim.Mailbox.receive eng mb) :: !got
             done));
      ignore
        (Sim.Engine.spawn eng (fun () ->
             List.iter (fun x -> Sim.Mailbox.send eng mb x) msgs));
      Sim.Engine.run eng;
      List.rev !got = msgs)

(* A jittered run's order is a function of the seed and the key rule
   alone, so its trace is pinned: the digest changes only when the key
   rule, the draws or the primitives' scheduling change. Inline wake-ups
   and the heap's front slot run here and must not move it. *)
let test_jittered_engine_order_pinned () =
  let eng = Sim.Engine.create () in
  Sim.Engine.set_jitter eng (Some (Sim.Prng.of_int64 0xeL));
  let trace = Buffer.create 4096 in
  let note tag =
    Buffer.add_string trace
      (Printf.sprintf "%s@%Ld;" tag (Sim.Engine.now eng))
  in
  for i = 0 to 3 do
    let rng = Sim.Prng.of_int64 (Int64.of_int (100 + i)) in
    ignore
      (Sim.Engine.spawn eng ~name:(string_of_int i) (fun () ->
           for _ = 1 to 200 do
             Sim.Engine.delay (Int64.of_int (100 * (1 + Sim.Prng.int rng 8)));
             note (string_of_int i);
             if Sim.Prng.int rng 4 = 0 then
               Sim.Engine.schedule eng ~after:100L (fun () ->
                   note ("t" ^ string_of_int i))
           done))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "events" 1016 (Sim.Engine.events_scheduled eng);
  Alcotest.(check string) "trace digest" "4c10edf7279c4fffbbdad395b8fe910c"
    (Digest.to_hex (Digest.string (Buffer.contents trace)))

(* Minor words allocated per call of [f], measured from inside a lone
   thread so that only the calls themselves are counted. *)
let words_per_call n f =
  let eng = Sim.Engine.create () in
  let words = ref nan in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           f ()
         done;
         words := (Gc.minor_words () -. w0) /. float n));
  Sim.Engine.run eng;
  !words

(* An inline delay returns without an effect: it allocates only the
   clock's new boxed value (3 words; the effect round trip cost 16.1),
   and reading the clock allocates nothing. A queued delay performs an
   effect with no payload through a handler built once per thread: 15
   words (the continuation and its option, the event, the timer cons,
   the clock's box), against 32. *)
let test_delay_and_time_allocation () =
  let inline = words_per_call 10_000 (fun () -> Sim.Engine.delay 1L) in
  Alcotest.(check bool)
    (Printf.sprintf "inline delay allocates %.2f words, only the clock" inline)
    true (inline < 3.5);
  let time = words_per_call 10_000 (fun () -> ignore (Sim.Engine.time ())) in
  Alcotest.(check bool)
    (Printf.sprintf "time allocates %.2f words" time)
    true (time < 0.01);
  (* Two threads in lockstep: each wake-up finds the other's, with an
     earlier key, at the head of the queue, so every delay is queued. *)
  let n = 10_000 in
  let eng = Sim.Engine.create () in
  for _ = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           for _ = 1 to n / 2 do
             Sim.Engine.delay 10L
           done))
  done;
  let w0 = Gc.minor_words () in
  Sim.Engine.run eng;
  let queued = (Gc.minor_words () -. w0) /. float n in
  check_i64 "every delay elapsed" (Int64.of_int (10 * n / 2))
    (Sim.Engine.now eng);
  Alcotest.(check bool)
    (Printf.sprintf "queued delay allocates %.2f words" queued)
    true (queued <= 16.)

(* Events due at the current instant go to the same-instant lane, and
   the run loop pops whichever of the lane and the heap holds the first
   [(time, key)]: an entry already in the heap for this instant, with a
   smaller key, runs before the lane's entries. *)
let test_lane_heap_entry_due_now_first () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let note s = order := (s, Sim.Engine.now eng) :: !order in
  Sim.Engine.schedule eng ~after:100L (fun () ->
      note "a";
      Sim.Engine.schedule eng ~after:0L (fun () -> note "c");
      ignore (Sim.Engine.spawn eng (fun () -> note "d")));
  Sim.Engine.schedule eng ~after:100L (fun () -> note "b");
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int64)))
    "heap entry before the lane"
    [ ("a", 100L); ("b", 100L); ("c", 100L); ("d", 100L) ]
    (List.rev !order)

(* Under jitter a fresh key may sort before up to 7 keys of its block of
   8; the lane keeps them in key order, as the heap would. *)
let test_lane_keeps_jittered_order () =
  let n = 40 in
  let eng = Sim.Engine.create () in
  Sim.Engine.set_jitter eng (Some (Sim.Prng.of_int64 0x1a4eL));
  let order = ref [] in
  for i = 1 to n do
    Sim.Engine.schedule eng ~after:0L (fun () -> order := i :: !order)
  done;
  Sim.Engine.run eng;
  let p = Sim.Prng.of_int64 0x1a4eL in
  let keys = List.init n (fun i -> (jittered_key (i + 1) (Sim.Prng.int p 8), i + 1)) in
  let expected = List.map snd (List.sort compare keys) in
  Alcotest.(check (list int)) "key order" expected (List.rev !order);
  Alcotest.(check bool) "jitter reordered the instant" true
    (expected <> List.init n (fun i -> i + 1))

(* A cancelled lane entry never runs, and [cancelled_pending] counts it
   until it drains, or until a compaction sweeps it out. *)
let test_lane_cancel_and_compaction () =
  let eng = Sim.Engine.create () in
  let fired = ref [] in
  let tm = Sim.Engine.timer eng ~after:0L (fun () -> fired := 0 :: !fired) in
  Sim.Engine.cancel tm;
  Alcotest.(check int) "pending before the drain" 1
    (Sim.Engine.cancelled_pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "cancelled lane timer never ran" [] !fired;
  Alcotest.(check int) "pending after the drain" 0
    (Sim.Engine.cancelled_pending eng);
  (* 60 lane entries and 40 heap entries; the 51st cancel is the first
     with more than half of the queue dead, and it compacts both (30 of
     its dead entries are in the lane, 21 in the heap). *)
  let timers =
    List.init 100 (fun i ->
        Sim.Engine.timer eng
          ~after:(if i < 60 then 0L else Int64.of_int i)
          (fun () -> fired := i :: !fired))
  in
  let dead = List.filteri (fun i _ -> i mod 2 = 0 || i >= 80) timers in
  Alcotest.(check int) "cancelling 40 + 20" 60 (List.length dead);
  List.iteri
    (fun k tm ->
      Sim.Engine.cancel tm;
      if k = 50 then
        Alcotest.(check int) "compaction resets the count" 0
          (Sim.Engine.cancelled_pending eng))
    dead;
  Alcotest.(check int) "cancels after the compaction" 9
    (Sim.Engine.cancelled_pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "survivors ran in order"
    (List.filter (fun i -> i mod 2 = 1 && i < 80) (List.init 100 Fun.id))
    (List.rev !fired);
  Alcotest.(check int) "pending after the run" 0
    (Sim.Engine.cancelled_pending eng)

(* [next_event_time] reports the current instant while the lane holds
   entries; [run ~until] equal to now still runs them, and [stop] leaves
   the rest of the lane queued for the next [run]. *)
let test_lane_until_now_and_stop () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let note s = order := s :: !order in
  Sim.Engine.schedule eng ~after:500L (fun () -> note "late");
  Sim.Engine.schedule eng ~after:50L (fun () ->
      note "a";
      Sim.Engine.schedule eng ~after:0L (fun () ->
          note "b";
          Sim.Engine.stop eng);
      Sim.Engine.schedule eng ~after:0L (fun () -> note "c");
      Sim.Engine.stop eng);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "stopped after a" [ "a" ] (List.rev !order);
  check_i64 "clock at the stop" 50L (Sim.Engine.now eng);
  Alcotest.(check (option int64)) "lane entries due now" (Some 50L)
    (Sim.Engine.next_event_time eng);
  Sim.Engine.run ~until:50L eng;
  Alcotest.(check (list string)) "until = now runs the lane; stop honoured"
    [ "a"; "b" ] (List.rev !order);
  Sim.Engine.run ~until:50L eng;
  Alcotest.(check (list string)) "then the rest of the instant"
    [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check (option int64)) "the heap's next" (Some 500L)
    (Sim.Engine.next_event_time eng);
  check_i64 "clock did not move" 50L (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "all ran" [ "a"; "b"; "c"; "late" ]
    (List.rev !order)

(* A [run ~until] below the clock is clamped to it: the clock stays, and
   the lane's entries, due at the current instant, run as with [until]
   = now. *)
let test_until_below_clock_clamps () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let note s = order := (s, Sim.Engine.now eng) :: !order in
  Sim.Engine.schedule eng ~after:100L (fun () ->
      note "a";
      Sim.Engine.schedule eng ~after:0L (fun () -> note "b");
      Sim.Engine.schedule eng ~after:10L (fun () -> note "c");
      Sim.Engine.stop eng);
  Sim.Engine.run eng;
  Sim.Engine.run ~until:50L eng;
  check_i64 "clock stayed" 100L (Sim.Engine.now eng);
  Alcotest.(check (option int64)) "next still ahead" (Some 110L)
    (Sim.Engine.next_event_time eng);
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int64)))
    "in time order"
    [ ("a", 100L); ("b", 100L); ("c", 110L) ]
    (List.rev !order)

(* The thread operations find their engine through the domain's running
   [run], which a nested [run] replaces and restores, also when it
   raises. Outside any [run] they refuse. *)
let test_nested_run_restores_engine () =
  let outer = Sim.Engine.create () and inner = Sim.Engine.create () in
  let seen = ref [] in
  let note s = seen := (s, Sim.Engine.time ()) :: !seen in
  ignore
    (Sim.Engine.spawn outer (fun () ->
         Sim.Engine.delay 10L;
         ignore
           (Sim.Engine.spawn inner (fun () ->
                Sim.Engine.delay 1000L;
                note "inner"));
         Sim.Engine.run inner;
         note "outer after run";
         ignore
           (Sim.Engine.spawn inner (fun () ->
                Sim.Engine.delay 5L;
                failwith "boom"));
         (match Sim.Engine.run inner with
         | () -> note "no raise"
         | exception Failure _ -> note "outer after raise");
         Sim.Engine.delay 10L;
         note "outer"));
  Sim.Engine.run outer;
  Alcotest.(check (list (pair string int64)))
    "each thread reads its own engine"
    [ ("inner", 1000L); ("outer after run", 10L); ("outer after raise", 10L);
      ("outer", 20L) ]
    (List.rev !seen);
  check_i64 "inner clock" 1005L (Sim.Engine.now inner);
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "time outside a run" true
    (refused (fun () -> ignore (Sim.Engine.time ())));
  Alcotest.(check bool) "delay outside a run" true
    (refused (fun () -> Sim.Engine.delay 1L))

let suite =
  [
    Alcotest.test_case "clock advances with delays" `Quick test_clock_advances;
    Alcotest.test_case "deterministic tie-break order" `Quick
      test_deterministic_order;
    Alcotest.test_case "spawn_at starts later" `Quick test_spawn_at;
    Alcotest.test_case "kill unwinds with cleanup" `Quick test_kill_unwinds;
    Alcotest.test_case "kill before start" `Quick test_kill_before_start;
    Alcotest.test_case "run ~until pauses and resumes" `Quick test_run_until;
    Alcotest.test_case "delay past until stops at until" `Quick
      test_delay_past_until_stops_at_until;
    Alcotest.test_case "inline wake-ups keep tie-breaks" `Quick
      test_inline_wakeups_keep_tie_breaks;
    Alcotest.test_case "killed thread's delay raises Killed" `Quick
      test_killed_thread_delay_raises;
    Alcotest.test_case "crash handler invoked" `Quick test_crash_handler;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "ivar fill/read" `Quick test_ivar_basic;
    Alcotest.test_case "ivar read timeout" `Quick test_ivar_timeout;
    Alcotest.test_case "ivar fill after timeout" `Quick
      test_ivar_fill_after_timeout;
    Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox timeout does not eat messages" `Quick
      test_mailbox_timeout_then_send;
    Alcotest.test_case "mutex mutual exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex released when holder killed" `Quick
      test_mutex_killed_holder_releases;
    Alcotest.test_case "semaphore limits concurrency" `Quick
      test_semaphore_limits;
    Alcotest.test_case "barrier releases all at once" `Quick
      test_barrier_releases_all;
    Alcotest.test_case "barrier is cyclic" `Quick test_barrier_cyclic;
    Alcotest.test_case "barrier abort releases waiters" `Quick
      test_barrier_abort_releases_waiters;
    Alcotest.test_case "barrier shrinks when a party dies" `Quick
      test_barrier_remove_party;
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng streams pinned" `Quick test_prng_streams_pinned;
    Alcotest.test_case "jittered engine order pinned" `Quick
      test_jittered_engine_order_pinned;
    Alcotest.test_case "heap pop releases peak capacity" `Quick
      test_heap_pop_releases_peak;
    Alcotest.test_case "cancelled timers compacted eagerly" `Quick
      test_cancelled_timers_compacted;
    Alcotest.test_case "engine rejects use from a foreign domain" `Quick
      test_foreign_domain_rejected;
    QCheck_alcotest.to_alcotest qcheck_heap_ordered;
    QCheck_alcotest.to_alcotest qcheck_heap_filter_preserves_order;
    QCheck_alcotest.to_alcotest qcheck_heap_matches_sorted_list;
    QCheck_alcotest.to_alcotest qcheck_engine_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_bucket_of_ns_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_prng_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_int_matches_remainder;
    QCheck_alcotest.to_alcotest qcheck_mailbox_preserves_messages;
    Alcotest.test_case "delay and time allocation" `Quick
      test_delay_and_time_allocation;
    Alcotest.test_case "lane: heap entry due now first" `Quick
      test_lane_heap_entry_due_now_first;
    Alcotest.test_case "lane: jittered order kept" `Quick
      test_lane_keeps_jittered_order;
    Alcotest.test_case "lane: cancel and compaction" `Quick
      test_lane_cancel_and_compaction;
    Alcotest.test_case "lane: until now and stop" `Quick
      test_lane_until_now_and_stop;
    Alcotest.test_case "run ~until below the clock clamps" `Quick
      test_until_below_clock_clamps;
    Alcotest.test_case "nested run restores the engine" `Quick
      test_nested_run_restores_engine;
  ]
