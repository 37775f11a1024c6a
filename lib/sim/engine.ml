exception Killed

(* [retired] is set once the entry can never run again — popped by the
   run loop or removed by heap compaction — so a late [cancel] on a
   dead timer handle does not skew the engine's cancelled-entry count.
   Events carry a back-pointer to their engine so [cancel] (whose public
   type is [timer -> unit]) can keep that count exact and trigger lazy
   heap compaction. *)
type event = {
  mutable cancelled : bool;
  mutable retired : bool;
  act : unit -> unit;
  eng : t;
}

and thread = {
  tid : int;
  name : string;
  mutable owner : int;
  hosted : bool;
  mutable dead : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable timers : event list;
  mutable on_exit : (unit -> unit) list;
  mutable wake_at : int;
  mutable wake_key : int;
      (* time key and sequence key of a queued delay's wake-up, handed
         from [delay] to the [E_delay] handler so the effect carries no
         payload *)
  wake : unit -> unit;
  running : thread option;
}

and t = {
  mutable now : int64;
  events : event Heap.t;
  (* The same-instant lane: events due at [now], sorted by key, in slots
     [lane_head, lane_tail) of [lane_keys]/[lane_evs]. Popped slots hold
     [nil], so the lane keeps no continuation alive. *)
  mutable lane_keys : int array;
  mutable lane_evs : event array;
  mutable lane_head : int;
  mutable lane_tail : int;
  nil : event;
  mutable seq : int;
  mutable next_tid : int;
  mutable current : thread option;
  mutable live : int;
  mutable crash_handler : thread -> exn -> unit;
  mutable jitter : Prng.t option;
  mutable cancelled_pending : int;
      (* cancelled, unpopped entries still sitting in the heap or lane *)
  domain : int; (* id of the domain that created the engine *)
  mutable until : int64;
      (* bound of the running [run ~until]; [Int64.max_int] when none *)
  mutable stopping : bool; (* [stop] was called during the running [run] *)
}

type timer = event

type _ Effect.t +=
  | E_delay : unit Effect.t
  | E_suspend : (thread -> unit) -> unit Effect.t

let create () =
  let rec eng =
    { now = 0L;
      events = Heap.create ();
      lane_keys = [||];
      lane_evs = [||];
      lane_head = 0;
      lane_tail = 0;
      nil = { cancelled = true; retired = true; act = ignore; eng };
      seq = 0;
      next_tid = 0;
      current = None;
      live = 0;
      crash_handler = (fun _ _ -> ());
      jitter = None;
      cancelled_pending = 0;
      domain = (Domain.self () :> int);
      until = Int64.max_int;
      stopping = false }
  in
  eng.crash_handler <-
    (fun thr e ->
      let bt = Printexc.get_backtrace () in
      let msg =
        Printf.sprintf "sim thread %S (tid %d) raised %s\n%s" thr.name thr.tid
          (Printexc.to_string e) bt
      in
      raise (Failure msg));
  eng

let now eng = eng.now

(* Tid of the thread the engine is currently executing, or 0 when called
   from outside any simulation thread (boot code, sinks). *)
let current_tid eng =
  match eng.current with Some t -> t.tid | None -> 0

let current eng =
  match eng.current with
  | Some t -> t
  | None -> invalid_arg "Engine.current: not inside a simulation thread"

let set_crash_handler eng f = eng.crash_handler <- f

(* An engine is single-threaded by construction: it may only be driven by
   the domain that created it. Parallel fuzzing relies on this — each
   worker domain owns a private engine and never shares it. *)
let assert_owner eng op =
  let d = (Domain.self () :> int) in
  if d <> eng.domain then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: engine owned by domain %d used from domain %d (engines \
          are single-threaded; create one per domain)"
         op eng.domain d)

let set_jitter eng prng = eng.jitter <- prng

(* The one place an event gets its key: every scheduled event and every
   delay wake-up, inline or queued, consumes one sequence number and,
   under jitter, one draw. Without jitter the key is the sequence number.
   With jitter, [seq lxor r] ([r < 8]) perturbs the order of events at
   the same virtual instant, so logically-concurrent events interleave
   differently across seeds while each seed replays exactly; events at
   different times are never reordered. The low 3 bits of [seq] below
   the perturbed bits make every key unique: [seq land 7] is read off the
   key's low bits, and the rest of [seq] off [seq lxor r], whose bits
   above the third [r] cannot touch. Unique keys make the event order
   total, which is what lets the inline delay wake-up below skip the
   queue exactly, with or without jitter. *)
let next_key eng =
  eng.seq <- eng.seq + 1;
  let s = eng.seq in
  match eng.jitter with
  | None -> s
  | Some p -> ((s lxor Prng.int p 8) lsl 3) lor (s land 7)

(* [Heap.key_of_time], written out here so that the hot paths below
   neither call into another module nor box the [int64] they would
   pass. *)
let key_of_time t = Int64.to_int (Int64.sub t Heap.time_offset)

let lane_is_empty eng = eng.lane_head = eng.lane_tail

(* Make room at the lane's tail: slide the live entries down to slot 0
   when they fill at most half the arrays, or else double them, so a
   push costs amortized O(1) however pops and pushes interleave. *)
let lane_make_room eng =
  let n = eng.lane_tail - eng.lane_head in
  let cap = Array.length eng.lane_keys in
  let keys, evs =
    if cap > 0 && 2 * n <= cap then (eng.lane_keys, eng.lane_evs)
    else
      let c = max 16 (2 * cap) in
      (Array.make c 0, Array.make c eng.nil)
  in
  Array.blit eng.lane_keys eng.lane_head keys 0 n;
  Array.blit eng.lane_evs eng.lane_head evs 0 n;
  Array.fill evs n (Array.length evs - n) eng.nil;
  eng.lane_keys <- keys;
  eng.lane_evs <- evs;
  eng.lane_head <- 0;
  eng.lane_tail <- n

(* Keys are fresh, so an insert lands at the tail or, under jitter,
   moves past at most the 7 other keys of its block of 8. *)
let lane_push eng key e =
  if eng.lane_tail = Array.length eng.lane_keys then lane_make_room eng;
  let keys = eng.lane_keys and evs = eng.lane_evs in
  let i = ref eng.lane_tail in
  while !i > eng.lane_head && keys.(!i - 1) > key do
    keys.(!i) <- keys.(!i - 1);
    evs.(!i) <- evs.(!i - 1);
    decr i
  done;
  keys.(!i) <- key;
  evs.(!i) <- e;
  eng.lane_tail <- eng.lane_tail + 1

let lane_drop_head eng =
  let i = eng.lane_head in
  eng.lane_evs.(i).retired <- true;
  eng.lane_evs.(i) <- eng.nil;
  if i + 1 = eng.lane_tail then begin
    eng.lane_head <- 0;
    eng.lane_tail <- 0
  end
  else eng.lane_head <- i + 1

(* [tk] is the event's time as a heap key. An event due at the current
   instant joins the lane, any other the heap. The clock cannot pass an
   instant while lane entries are due at it (the run loop pops them
   first, and [run] never moves the clock back), so the lane's instant
   is always [now]. *)
let enqueue eng tk key act =
  let e = { cancelled = false; retired = false; act; eng } in
  if tk = key_of_time eng.now then lane_push eng key e
  else Heap.push_key eng.events ~key:tk ~seq:key e;
  e

let schedule_at eng time act =
  assert_owner eng "schedule_at";
  let time = if Int64.compare time eng.now < 0 then eng.now else time in
  enqueue eng (key_of_time time) (next_key eng) act

let schedule eng ~after act =
  ignore (schedule_at eng (Int64.add eng.now after) act)

let timer eng ~after act = schedule_at eng (Int64.add eng.now after) act

(* When cancelled entries dominate the queue (heap and lane), sweep them
   out in one O(n) pass instead of letting them drain through [pop] at
   their (possibly far-future) deadlines. The threshold keeps the
   amortized cost O(1) per cancel while bounding the queue at ~2x its
   live size. *)
let maybe_compact eng =
  if
    eng.cancelled_pending > 32
    && eng.cancelled_pending * 2
       > Heap.length eng.events + eng.lane_tail - eng.lane_head
  then begin
    Heap.filter eng.events (fun e ->
        if e.cancelled then begin
          e.retired <- true;
          false
        end
        else true);
    let keys = eng.lane_keys and evs = eng.lane_evs in
    let j = ref eng.lane_head in
    for i = eng.lane_head to eng.lane_tail - 1 do
      let e = evs.(i) in
      if e.cancelled then e.retired <- true
      else begin
        keys.(!j) <- keys.(i);
        evs.(!j) <- e;
        incr j
      end
    done;
    Array.fill evs !j (eng.lane_tail - !j) eng.nil;
    eng.lane_tail <- !j;
    eng.cancelled_pending <- 0
  end

let cancel tm =
  if not tm.cancelled && not tm.retired then begin
    tm.cancelled <- true;
    let eng = tm.eng in
    eng.cancelled_pending <- eng.cancelled_pending + 1;
    maybe_compact eng
  end

(* Resume a suspended thread by scheduling its parked continuation as an
   event at the current time. Returns false if the thread holds no
   continuation (already resumed, running, or never suspended): that tells a
   waker it lost the race against a competing waker or timeout. Any timers
   attached to the suspension (timeouts, delay wakeups) are cancelled so
   they cannot later advance the virtual clock. *)
let try_resume eng thr =
  match thr.cont with
  | None -> false
  | Some k ->
    thr.cont <- None;
    List.iter cancel thr.timers;
    thr.timers <- [];
    schedule eng ~after:0L (fun () ->
        let open Effect.Deep in
        let prev = eng.current in
        eng.current <- thr.running;
        (if thr.dead then discontinue k Killed else continue k ());
        eng.current <- prev);
    true

let resume eng thr = ignore (try_resume eng thr)

(* Arrange for a suspended thread to be woken after a delay; cancelled
   automatically if something else resumes it first. Call only from a
   suspend registration (or on a thread known to be suspended). *)
let wake_after eng thr d =
  let tm = timer eng ~after:d (fun () -> resume eng thr) in
  thr.timers <- tm :: thr.timers

let kill eng thr =
  if not thr.dead then begin
    thr.dead <- true;
    (* If suspended, force prompt unwinding so cleanup handlers run. *)
    ignore (try_resume eng thr)
  end

let finish eng thr =
  thr.dead <- true;
  eng.live <- eng.live - 1;
  List.iter cancel thr.timers;
  thr.timers <- [];
  List.iter (fun f -> f ()) (List.rev thr.on_exit);
  thr.on_exit <- []

let exec eng thr body =
  let open Effect.Deep in
  (* Built once per thread, so a queued delay allocates no handler. *)
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        thr.cont <- Some k;
        (* The wakeup timer continues the thread directly (see [wake] in
           [spawn]). If a competing waker (kill, mailbox send) claims the
           continuation first, it also cancels this timer. *)
        thr.timers <-
          enqueue eng thr.wake_at thr.wake_key thr.wake :: thr.timers)
  in
  match_with
    (fun () -> try body () with Killed -> ())
    ()
    { retc = (fun () -> finish eng thr);
      exnc =
        (fun e ->
          finish eng thr;
          eng.crash_handler thr e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | E_delay -> on_delay
          | E_suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                if thr.dead then discontinue k Killed
                else begin
                  thr.cont <- Some k;
                  register thr
                end)
          | _ -> None) }

let spawn ?(name = "thread") ?(owner = -1) ?(hosted = false) ?at ?on_exit eng
    body =
  eng.next_tid <- eng.next_tid + 1;
  (* The delay wake-up and the [Some thr] the engine installs as current
     are built once here rather than on every delay. A fired wake-up that
     finds [cont = Some k] owns the continuation: any competing waker
     would have taken it and cancelled the timer first. *)
  let rec thr =
    { tid = eng.next_tid;
      name;
      owner;
      hosted;
      dead = false;
      cont = None;
      timers = [];
      on_exit = Option.to_list on_exit;
      wake_at = 0;
      wake_key = 0;
      wake =
        (fun () ->
          match thr.cont with
          | None -> ()
          | Some k ->
            thr.cont <- None;
            thr.timers <- [];
            let prev = eng.current in
            eng.current <- thr.running;
            (if thr.dead then Effect.Deep.discontinue k Killed
             else Effect.Deep.continue k ());
            eng.current <- prev);
      running = Some thr }
  in
  eng.live <- eng.live + 1;
  let start () =
    if thr.dead then
      (* Killed before it ever ran: just account for its exit. *)
      finish eng thr
    else begin
      let prev = eng.current in
      eng.current <- thr.running;
      exec eng thr body;
      eng.current <- prev
    end
  in
  (match at with
  | None -> schedule eng ~after:0L start
  | Some time -> ignore (schedule_at eng time start));
  thr

(* The engine whose [run] is executing on this domain; [idle], which
   never runs, when there is none. [run] sets it and restores the outer
   value on return, also on a raise and around a nested [run], so the
   thread operations below find their engine without an effect. *)
let idle = create ()

let running = Domain.DLS.new_key (fun () -> idle)

let not_in_thread op =
  invalid_arg ("Engine." ^ op ^ ": not inside a thread of a running engine")

let time () =
  let eng = Domain.DLS.get running in
  if eng == idle then not_in_thread "time";
  eng.now

let delay ns =
  if Int64.compare ns 0L > 0 then begin
    let eng = Domain.DLS.get running in
    let thr =
      match eng.current with Some thr -> thr | None -> not_in_thread "delay"
    in
    if thr.dead then raise Killed;
    let now = eng.now in
    let t = Int64.add now ns in
    (* an overflowing sum clamps to now, as in [schedule_at] *)
    let t = if Int64.compare t now < 0 then now else t in
    let key = next_key eng in
    let tk = key_of_time t in
    let h = eng.events in
    if
      lane_is_empty eng
      && (not eng.stopping)
      && Int64.compare t eng.until <= 0
      && (Heap.is_empty h
         ||
         let top = Heap.top_key h in
         tk < top || (tk = top && key < Heap.top_seq h))
    then
      (* The wake-up would be the very next event popped (keys are
         unique, so "before the top" is exact), and nothing runs between
         this return and that pop: advance the clock and go on, skipping
         the queue round trip. Its key is still drawn, so every later
         event keeps the key it would have had. *)
      eng.now <- t
    else begin
      thr.wake_at <- tk;
      thr.wake_key <- key;
      Effect.perform E_delay
    end
  end

let suspend register = Effect.perform (E_suspend register)

let at_exit_thread f =
  match (Domain.DLS.get running).current with
  | Some thr -> thr.on_exit <- f :: thr.on_exit
  | None -> not_in_thread "at_exit_thread"

(* Pop events in [(time, key)] order, from whichever of the lane and the
   heap holds the first, until both are empty, the next is past [u], or
   [stop] was called. *)
let rec loop eng u =
  if not eng.stopping then begin
    let h = eng.events in
    if lane_is_empty eng then begin
      if not (Heap.is_empty h) then pop_heap eng u
    end
    else if
      Heap.is_empty h
      ||
      let top = Heap.top_key h and lk = key_of_time eng.now in
      top > lk || (top = lk && Heap.top_seq h > eng.lane_keys.(eng.lane_head))
    then pop_lane eng u
    else pop_heap eng u
  end

and pop_lane eng u =
  let e = eng.lane_evs.(eng.lane_head) in
  if e.cancelled then begin
    lane_drop_head eng;
    eng.cancelled_pending <- eng.cancelled_pending - 1;
    loop eng u
  end
  else begin
    lane_drop_head eng;
    e.act ();
    loop eng u
  end

and pop_heap eng u =
  let h = eng.events in
  let e = Heap.top h in
  if e.cancelled then begin
    Heap.drop_top h;
    e.retired <- true;
    eng.cancelled_pending <- eng.cancelled_pending - 1;
    loop eng u
  end
  else begin
    let time = Heap.top_time h in
    if Int64.compare time u > 0 then eng.now <- u
    else begin
      Heap.drop_top h;
      e.retired <- true;
      eng.now <- time;
      e.act ();
      loop eng u
    end
  end

(* A bound below the clock is clamped to it, so the clock never moves
   back. *)
let run ?until eng =
  assert_owner eng "run";
  let outer = eng.until and outer_eng = Domain.DLS.get running in
  eng.until <-
    (match until with
    | Some u when Int64.compare u eng.now > 0 -> u
    | Some _ -> eng.now
    | None -> Int64.max_int);
  eng.stopping <- false;
  Domain.DLS.set running eng;
  let restore () =
    eng.stopping <- false;
    eng.until <- outer;
    Domain.DLS.set running outer_eng
  in
  match loop eng eng.until with
  | () -> restore ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    restore ();
    Printexc.raise_with_backtrace e bt

let stop eng = eng.stopping <- true

let live_threads eng = eng.live

(* Virtual time of the earliest pending event (cancelled entries
   included — they still bound how far the clock can silently advance). *)
let next_event_time eng =
  let h = eng.events in
  if lane_is_empty eng then
    if Heap.is_empty h then None else Some (Heap.top_time h)
  else Some eng.now

let queue_capacity eng =
  Heap.capacity eng.events + Array.length eng.lane_evs

(* Total events ever scheduled; a deterministic measure of how much work
   a simulation did (wall-clock-free, so benches can gate on it). *)
let events_scheduled eng = eng.seq

let cancelled_pending eng = eng.cancelled_pending
