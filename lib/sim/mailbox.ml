(* Waiters are kept in a FIFO [Queue.t] with tombstones: a receiver that
   stops waiting (timeout, kill) marks its own record inactive instead of
   rebuilding the structure, so send and receive are O(1). The old list
   representation appended with [@ [w]] and removed with a [List.filter]
   on [w.thread != me], which was quadratic under load and — worse —
   dropped the *wrong* record when the same thread re-entered [receive]:
   cleanup is now by record identity, and [deliver] checks [active]
   before resuming so a stale record can never steal a message for a
   thread that is meanwhile suspended somewhere else. *)
type 'a waiter = {
  slot : 'a option ref;
  thread : Engine.thread;
  mutable active : bool;
}

type 'a t = {
  queue : 'a Queue.t;
  mutable waiters : 'a waiter Queue.t;
  mutable stale : int; (* inactive records still in [waiters] *)
}

let create () = { queue = Queue.create (); waiters = Queue.create (); stale = 0 }

let length m = Queue.length m.queue

(* Deliver to the first waiter that is still waiting; tombstones and
   losers of a wake race (e.g. timed-out receivers whose wakeup is
   already scheduled) are skipped and dropped. *)
let rec deliver eng m x =
  match Queue.take_opt m.waiters with
  | None -> Queue.push x m.queue
  | Some w ->
    if not w.active then begin
      m.stale <- m.stale - 1;
      deliver eng m x
    end
    else begin
      w.active <- false;
      if Engine.try_resume eng w.thread then w.slot := Some x
      else deliver eng m x
    end

let send eng m x = deliver eng m x

let try_receive m = Queue.take_opt m.queue

(* Discard queued messages without waking waiters: used when a failed
   node's hardware queues are reset on restore. *)
let clear m =
  let n = Queue.length m.queue in
  Queue.clear m.queue;
  n

(* Selectively discard queued messages matching [p], preserving the order
   of survivors: used when a healed partition resets only the envelopes
   that originated behind the blackout. *)
let reject m p =
  let keep = Queue.create () in
  let dropped = ref 0 in
  Queue.iter
    (fun x -> if p x then incr dropped else Queue.push x keep)
    m.queue;
  Queue.clear m.queue;
  Queue.transfer keep m.queue;
  !dropped

(* Drop tombstones once they outnumber the live waiters (with a small
   floor), keeping the cost amortized O(1) per abandoned wait. *)
let purge m =
  let keep = Queue.create () in
  Queue.iter (fun w -> if w.active then Queue.push w keep) m.waiters;
  m.waiters <- keep;
  m.stale <- 0

(* Mark our own waiter record dead. Only this record is touched — never
   another record belonging to the same thread from an earlier or later
   [receive] — and [active] tells us whether it is still enqueued
   (everything that removes a record marks it inactive first). *)
let retire m = function
  | Some w when w.active ->
    w.active <- false;
    m.stale <- m.stale + 1;
    if m.stale > 8 && m.stale * 2 > Queue.length m.waiters then purge m
  | _ -> ()

let receive ?timeout eng m =
  match Queue.take_opt m.queue with
  | Some _ as r -> r
  | None ->
    let slot = ref None in
    let mine = ref None in
    (try
       Engine.suspend (fun thr ->
           let w = { slot; thread = thr; active = true } in
           mine := Some w;
           Queue.push w m.waiters;
           match timeout with
           | None -> ()
           | Some d -> Engine.wake_after eng thr d)
     with e ->
       (* Killed while suspended: unwind must not leave a live record
          behind, or a later send would resume the corpse. *)
       retire m !mine;
       raise e);
    (match !slot with
    | Some _ as r -> r
    | None ->
      retire m !mine;
      None)
