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
  mutable dead : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable timers : event list;
  mutable on_exit : (unit -> unit) list;
  wake : unit -> unit;
  running : thread option;
}

and t = {
  mutable now : int64;
  events : event Heap.t;
  mutable seq : int;
  mutable next_tid : int;
  mutable current : thread option;
  mutable live : int;
  mutable crash_handler : thread -> exn -> unit;
  mutable jitter : Prng.t option;
  mutable cancelled_pending : int;
      (* cancelled, unpopped entries still sitting in the event heap *)
  owner : int; (* id of the domain that created the engine *)
  mutable until : int64;
      (* bound of the running [run ~until]; [Int64.max_int] when none *)
  mutable inline_depth : int;
      (* wake-ups currently continued inline, nested on the run loop's
         stack (see the [E_delay] handler) *)
}

type timer = event

type _ Effect.t +=
  | E_now : int64 Effect.t
  | E_delay : int64 -> unit Effect.t
  | E_suspend : (thread -> unit) -> unit Effect.t
  | E_at_exit : (unit -> unit) -> unit Effect.t

let create () =
  let eng =
    { now = 0L;
      events = Heap.create ();
      seq = 0;
      next_tid = 0;
      current = None;
      live = 0;
      crash_handler = (fun _ _ -> ());
      jitter = None;
      cancelled_pending = 0;
      owner = (Domain.self () :> int);
      until = Int64.max_int;
      inline_depth = 0 }
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
  if d <> eng.owner then
    invalid_arg
      (Printf.sprintf
         "Engine.%s: engine owned by domain %d used from domain %d (engines \
          are single-threaded; create one per domain)"
         op eng.owner d)

let set_jitter eng prng = eng.jitter <- prng

(* With jitter enabled, perturb the low bits of the tie-break sequence
   number so that events scheduled for the same virtual instant may pop in
   a different (but still seed-deterministic) order. Events at different
   times are never reordered, so causality is preserved; only the
   interleaving of logically-concurrent events varies across seeds. *)
let schedule_at eng time act =
  assert_owner eng "schedule_at";
  let time = if Int64.compare time eng.now < 0 then eng.now else time in
  eng.seq <- eng.seq + 1;
  let seq =
    match eng.jitter with
    | None -> eng.seq
    | Some p -> eng.seq lxor Prng.int p 8
  in
  let e = { cancelled = false; retired = false; act; eng } in
  Heap.push eng.events ~time ~seq e;
  e

let schedule eng ~after act =
  ignore (schedule_at eng (Int64.add eng.now after) act)

let timer eng ~after act = schedule_at eng (Int64.add eng.now after) act

(* When cancelled entries dominate the heap, sweep them out in one O(n)
   pass instead of letting them drain through [pop] at their (possibly
   far-future) deadlines. The threshold keeps the amortized cost O(1) per
   cancel while bounding the heap at ~2x its live size. *)
let maybe_compact eng =
  if
    eng.cancelled_pending > 32
    && eng.cancelled_pending * 2 > Heap.length eng.events
  then begin
    Heap.filter eng.events (fun e ->
        if e.cancelled then begin
          e.retired <- true;
          false
        end
        else true);
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

(* Each inline wake-up continues the thread from inside its own effect
   handler, so a run of them nests handler frames on the run loop's stack
   until the thread really blocks. Past this depth the wake-up takes the
   queue, which unwinds the nest; the bound only caps stack use. *)
let max_inline_depth = 128

let exec eng thr body =
  let open Effect.Deep in
  match_with
    (fun () -> try body () with Killed -> ())
    ()
    { retc = (fun () -> finish eng thr);
      exnc =
        (fun e ->
          finish eng thr;
          eng.crash_handler thr e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_now -> Some (fun (k : (a, unit) continuation) -> continue k eng.now)
          | E_delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                if thr.dead then discontinue k Killed
                else begin
                  let t = Int64.add eng.now d in
                  (* an overflowing sum clamps to now, as in [schedule_at] *)
                  let t = if Int64.compare t eng.now < 0 then eng.now else t in
                  if
                    (match eng.jitter with None -> true | Some _ -> false)
                    && eng.inline_depth < max_inline_depth
                    && Int64.compare t eng.until <= 0
                    && (Heap.is_empty eng.events
                       || Heap.key_of_time t < Heap.top_key eng.events)
                  then begin
                    (* The wake-up would be the very next event popped, and
                       nothing runs between this handler returning and that
                       pop: advance the clock and continue the thread here,
                       skipping the queue round trip. The sequence number
                       is still consumed, so every later event keeps the
                       number (and tie-break) it would have had. Exact only
                       when sequence numbers are unique; jitter makes them
                       collide, and then the heap layout decides ties. *)
                    eng.seq <- eng.seq + 1;
                    eng.now <- t;
                    eng.inline_depth <- eng.inline_depth + 1;
                    continue k ();
                    eng.inline_depth <- eng.inline_depth - 1
                  end
                  else begin
                    thr.cont <- Some k;
                    (* The wakeup timer continues the thread directly
                       (see [wake] in [spawn]). If a competing waker (kill,
                       mailbox send) claims the continuation first, it
                       also cancels this timer. *)
                    thr.timers <- schedule_at eng t thr.wake :: thr.timers
                  end
                end)
          | E_suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                if thr.dead then discontinue k Killed
                else begin
                  thr.cont <- Some k;
                  register thr
                end)
          | E_at_exit f ->
            Some
              (fun (k : (a, unit) continuation) ->
                thr.on_exit <- f :: thr.on_exit;
                continue k ())
          | _ -> None) }

let spawn ?(name = "thread") ?at eng body =
  eng.next_tid <- eng.next_tid + 1;
  (* The delay wake-up and the [Some thr] the engine installs as current
     are built once here rather than on every delay. A fired wake-up that
     finds [cont = Some k] owns the continuation: any competing waker
     would have taken it and cancelled the timer first. *)
  let rec thr =
    { tid = eng.next_tid;
      name;
      dead = false;
      cont = None;
      timers = [];
      on_exit = [];
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

let time () = Effect.perform E_now

let delay ns = if Int64.compare ns 0L > 0 then Effect.perform (E_delay ns)

let suspend register = Effect.perform (E_suspend register)

let at_exit_thread f = Effect.perform (E_at_exit f)

let run ?until eng =
  assert_owner eng "run";
  let u = Option.value until ~default:Int64.max_int in
  let outer = eng.until in
  eng.until <- u;
  eng.inline_depth <- 0;
  let h = eng.events in
  let rec loop () =
    if not (Heap.is_empty h) then begin
      let e = Heap.top h in
      if e.cancelled then begin
        Heap.drop_top h;
        e.retired <- true;
        eng.cancelled_pending <- eng.cancelled_pending - 1;
        loop ()
      end
      else begin
        let time = Heap.top_time h in
        if Int64.compare time u > 0 then eng.now <- u
        else begin
          Heap.drop_top h;
          e.retired <- true;
          eng.now <- time;
          e.act ();
          loop ()
        end
      end
    end
  in
  loop ();
  eng.until <- outer

let live_threads eng = eng.live

(* Virtual time of the earliest pending event (cancelled entries
   included — they still bound how far the clock can silently advance). *)
let next_event_time eng =
  if Heap.is_empty eng.events then None else Some (Heap.top_time eng.events)

let queue_capacity eng = Heap.capacity eng.events

(* Total events ever scheduled; a deterministic measure of how much work
   a simulation did (wall-clock-free, so benches can gate on it). *)
let events_scheduled eng = eng.seq

let cancelled_pending eng = eng.cancelled_pending
