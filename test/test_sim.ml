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
        (fun i t -> Sim.Heap.push h ~time:(Int64.of_int t) ~seq:i i)
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
      List.iter (fun (t, i, _) -> Sim.Heap.push h ~time:t ~seq:i i) entries;
      let keep = Array.of_list (List.map (fun (_, _, b) -> b) entries) in
      Sim.Heap.filter h (fun i -> keep.(i));
      let expected =
        List.filter_map (fun (t, i, b) -> if b then Some (t, i) else None)
          entries
        |> List.sort compare |> List.map snd
      in
      List.map snd (drain_heap h) = expected)

(* The entry-record heap the flat heap replaced, kept verbatim as a model.
   Equal keys pop in an order fixed by the layout, and jittered engine
   runs depend on that order, so the flat heap must go through the same
   layouts: same 4-ary sifts and tie rule, same grow/shrink policy, same
   [filter] heapify. *)
module Model_heap = struct
  type 'a entry = { time : int64; seq : int; payload : 'a }

  type 'a t = { mutable data : 'a entry array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow h =
    let cap = Array.length h.data in
    if h.size >= cap then begin
      let ncap = max 16 (2 * cap) in
      let nd = Array.make ncap h.data.(0) in
      Array.blit h.data 0 nd 0 h.size;
      h.data <- nd
    end

  let shrink h =
    let cap = Array.length h.data in
    if cap > 64 && h.size * 4 < cap then begin
      let ncap = max 16 (2 * h.size) in
      let nd = Array.make ncap h.data.(0) in
      Array.blit h.data 0 nd 0 h.size;
      h.data <- nd
    end

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 4 in
      if before h.data.(i) h.data.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let first = (4 * i) + 1 in
    if first < h.size then begin
      let last = min (first + 3) (h.size - 1) in
      let m = ref i in
      for c = first to last do
        if before h.data.(c) h.data.(!m) then m := c
      done;
      if !m <> i then begin
        swap h i !m;
        sift_down h !m
      end
    end

  let push h ~time ~seq payload =
    let e = { time; seq; payload } in
    if h.size = 0 && Array.length h.data = 0 then h.data <- Array.make 16 e;
    grow h;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        sift_down h 0
      end;
      shrink h;
      Some top
    end

  let filter h keep =
    let k = ref 0 in
    for i = 0 to h.size - 1 do
      let e = h.data.(i) in
      if keep e.payload then begin
        h.data.(!k) <- e;
        incr k
      end
    done;
    h.size <- !k;
    for i = (h.size - 2) / 4 downto 0 do
      sift_down h i
    done;
    shrink h
end

type heap_op = Push of int * int | Pop | Filter of int

(* Keys are drawn from a tiny space (8 times x 4 seqs) so that equal
   [(time, seq)] keys are common, as with jittered sequence numbers. *)
let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun t s -> Push (t, s)) (int_bound 7) (int_bound 3));
        (3, return Pop);
        (1, map (fun m -> Filter m) (int_range 2 5)) ])

let show_heap_op = function
  | Push (t, s) -> Printf.sprintf "push(%d,%d)" t s
  | Pop -> "pop"
  | Filter m -> Printf.sprintf "filter(mod %d)" m

let qcheck_heap_matches_model =
  QCheck.Test.make
    ~name:"heap pops equal keys in the entry-record heap's order"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 400) heap_op_gen))
    (fun ops ->
      let h = Sim.Heap.create () and m = Model_heap.create () in
      let next = ref 0 in
      let same = ref true in
      let pop_both () =
        match Model_heap.pop m with
        | None -> if not (Sim.Heap.is_empty h) then same := false
        | Some e ->
          if Sim.Heap.is_empty h then same := false
          else begin
            (* payloads are unique ids, so equal ids mean equal order *)
            if
              Sim.Heap.top_time h <> e.Model_heap.time
              || Sim.Heap.top h <> e.Model_heap.payload
            then same := false;
            Sim.Heap.drop_top h
          end
      in
      List.iter
        (fun op ->
          (match op with
          | Push (t, s) ->
            let id = !next in
            incr next;
            let time = Int64.of_int (t * 1000) in
            Sim.Heap.push h ~time ~seq:s id;
            Model_heap.push m ~time ~seq:s id
          | Pop -> pop_both ()
          | Filter md ->
            Sim.Heap.filter h (fun id -> id mod md <> 0);
            Model_heap.filter m (fun id -> id mod md <> 0));
          if Sim.Heap.capacity h <> Array.length m.Model_heap.data then
            same := false)
        ops;
      while m.Model_heap.size > 0 || not (Sim.Heap.is_empty h) do
        pop_both ()
      done;
      !same)

(* Draining a large heap must release its peak allocation: a long-lived
   engine should not pin the backing array of its largest campaign. *)
let test_heap_pop_releases_peak () =
  let h = Sim.Heap.create () in
  for i = 0 to 4095 do
    Sim.Heap.push h ~time:(Int64.of_int (i land 63)) ~seq:i i
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

(* With jitter, colliding sequence numbers make pop order depend on the
   heap's layout, so the engine must keep the event queue's exact history
   (no inline wake-ups). The trace of this jittered run is pinned: the
   digest is the one the entry-record heap and always-queued delays
   produced. Inlining wake-ups here, or changing the heap's tie rule,
   changes it. *)
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
  Alcotest.(check string) "trace digest" "36c96090ddd0bbc41056989f8122d8a6"
    (Digest.to_hex (Digest.string (Buffer.contents trace)))

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
    QCheck_alcotest.to_alcotest qcheck_heap_matches_model;
    QCheck_alcotest.to_alcotest qcheck_prng_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_int_matches_remainder;
    QCheck_alcotest.to_alcotest qcheck_mailbox_preserves_messages;
  ]
