type message = ..

type kind = Request | Reply

exception Too_large of int

exception Target_failed of int

type envelope = { src_proc : int; size : int; msg : message }

type node_queues = {
  requests : envelope Sim.Mailbox.t;
  replies : envelope Sim.Mailbox.t;
  mutable up : bool;
  mutable epoch : int;
      (* bumped on every failure so in-flight deliveries scheduled before
         the failure can never land in a restored node's fresh queues *)
}

(* A window of interconnect degradation on some set of links: messages from
   [deg_from] to [deg_to] (-1 = any) between [from_ns, until_ns) are
   dropped, duplicated or delayed with the given percent probabilities,
   drawn from the window's own PRNG so arming several windows (or shrinking
   a fuzz plan) never perturbs sibling draws. *)
type degradation = {
  deg_from : int; (* source proc, -1 = any *)
  deg_to : int; (* destination node, -1 = any *)
  from_ns : int64;
  until_ns : int64;
  drop_pct : int;
  dup_pct : int;
  delay_pct : int;
  max_delay_ns : int64; (* extra latency bound for delayed messages *)
}

(* A directed blackout window: every message from [part_from] to [part_to]
   (-1 = any node) whose flight overlaps [from_ns, until_ns) is lost on the
   wire. Unlike a degradation there is no probability — the link is simply
   severed in that direction, which is what lets two halves of the machine
   each believe the other is dead (split brain). Asymmetric reachability is
   a window armed in only one direction. *)
type partition = {
  part_from : int; (* source node, -1 = any *)
  part_to : int; (* destination node, -1 = any *)
  part_from_ns : int64;
  part_until_ns : int64;
}

type t = {
  eng : Sim.Engine.t;
  queues : node_queues array;
  mutable sends : int;
  mutable degradations : (degradation * Sim.Prng.t) list;
  mutable partitions : partition list;
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
  mutable stale_purged : int;
  mutable partition_blocked : int;
}

let max_payload = 128

let create eng ~nodes =
  {
    eng;
    queues =
      Array.init nodes (fun _ ->
          {
            requests = Sim.Mailbox.create ();
            replies = Sim.Mailbox.create ();
            up = true;
            epoch = 0;
          });
    sends = 0;
    degradations = [];
    partitions = [];
    drops = 0;
    dups = 0;
    delays = 0;
    stale_purged = 0;
    partition_blocked = 0;
  }

let fail_node t node =
  let q = t.queues.(node) in
  q.up <- false;
  q.epoch <- q.epoch + 1

(* Restoring a node resets its hardware receive queues: envelopes queued
   before the failure belong to the dead incarnation and must not be
   replayed into the rebooted kernel. *)
let restore_node t node =
  let q = t.queues.(node) in
  let purged = Sim.Mailbox.clear q.requests + Sim.Mailbox.clear q.replies in
  t.stale_purged <- t.stale_purged + purged;
  q.up <- true

let degrade t ~rng d = t.degradations <- t.degradations @ [ (d, rng) ]

let part_matches p ~from_node ~to_node =
  (p.part_from = -1 || p.part_from = from_node)
  && (p.part_to = -1 || p.part_to = to_node)

(* A message whose flight interval (sent_ns, arrival] touches a blackout
   window on its link is lost on the wire: this kills both messages sent
   during the window and delayed pre-partition envelopes that would
   otherwise land after the blackout started. *)
let crossed_blackout t ~from_node ~to_node ~sent_ns ~arrival_ns =
  List.exists
    (fun p ->
      part_matches p ~from_node ~to_node
      && Int64.compare p.part_from_ns arrival_ns <= 0
      && Int64.compare sent_ns p.part_until_ns < 0)
    t.partitions

let reachable t ~from_node ~to_node =
  let now = Sim.Engine.now t.eng in
  not
    (List.exists
       (fun p ->
         part_matches p ~from_node ~to_node
         && Int64.compare p.part_from_ns now <= 0
         && Int64.compare now p.part_until_ns < 0)
       t.partitions)

(* Heal: when a blackout window expires, the interconnect comes back with
   its receive queues scrubbed of envelopes that originated behind the
   partition — the same stale-incarnation purge [restore_node] performs,
   so a pre-partition envelope parked in a mailbox can never leak across
   the blackout into the healed epoch. *)
let heal_purge t p =
  let purge_node node =
    let q = t.queues.(node) in
    let stale env = p.part_from = -1 || env.src_proc = p.part_from in
    let purged =
      Sim.Mailbox.reject q.requests stale + Sim.Mailbox.reject q.replies stale
    in
    t.stale_purged <- t.stale_purged + purged
  in
  if p.part_to = -1 then
    Array.iteri (fun node _ -> purge_node node) t.queues
  else purge_node p.part_to

let partition t p =
  t.partitions <- t.partitions @ [ p ];
  let now = Sim.Engine.now t.eng in
  let delay = Int64.max 0L (Int64.sub p.part_until_ns now) in
  Sim.Engine.schedule t.eng ~after:delay (fun () -> heal_purge t p)

(* The first armed window that covers this (link, time) decides the
   message's fate; expired windows are pruned lazily. *)
let active_degradation t ~from_proc ~to_node =
  let now = Sim.Engine.now t.eng in
  t.degradations <-
    List.filter
      (fun (d, _) -> Int64.compare now d.until_ns < 0)
      t.degradations;
  List.find_opt
    (fun (d, _) ->
      Int64.compare d.from_ns now <= 0
      && (d.deg_from = -1 || d.deg_from = from_proc)
      && (d.deg_to = -1 || d.deg_to = to_node))
    t.degradations

(* Each SIPS delivers one cache line of data (128 bytes) in about the
   latency of a cache miss, with an interrupt raised at the receiver. Data
   beyond a cache line must be sent by reference, so [size] is capped.

   A degradation window can drop the message, deliver it late, or deliver
   it twice — the failure modes of a flaky coherence controller. Delivery
   checks both [up] and the queue epoch captured at send time, so a message
   in flight across a failure/restore never reaches the new incarnation. *)
let send t ~from_proc ~to_node ~kind ~size msg =
  if size > max_payload then raise (Too_large size);
  let q = t.queues.(to_node) in
  if not q.up then raise (Target_failed to_node);
  t.sends <- t.sends + 1;
  let base_latency = Int64.add Config.ipi_ns Config.sips_extra_ns in
  let env = { src_proc = from_proc; size; msg } in
  let epoch = q.epoch in
  let sent_ns = Sim.Engine.now t.eng in
  let deliver latency =
    Sim.Engine.schedule t.eng ~after:latency (fun () ->
        if
          crossed_blackout t ~from_node:from_proc ~to_node ~sent_ns
            ~arrival_ns:(Sim.Engine.now t.eng)
        then t.partition_blocked <- t.partition_blocked + 1
        else if q.up && q.epoch = epoch then
          Sim.Mailbox.send t.eng
            (match kind with Request -> q.requests | Reply -> q.replies)
            env)
  in
  if not (reachable t ~from_node:from_proc ~to_node) then
    (* Severed link: the message is lost on the wire, silently — the
       sender cannot distinguish a partition from a dead peer. *)
    t.partition_blocked <- t.partition_blocked + 1
  else
    match active_degradation t ~from_proc ~to_node with
    | None -> deliver base_latency
  | Some (d, rng) ->
    if Sim.Prng.int rng 100 < d.drop_pct then t.drops <- t.drops + 1
    else begin
      let latency =
        if Sim.Prng.int rng 100 < d.delay_pct then begin
          t.delays <- t.delays + 1;
          Int64.add base_latency
            (Sim.Prng.int64 rng (Int64.max 1L d.max_delay_ns))
        end
        else base_latency
      in
      deliver latency;
      if Sim.Prng.int rng 100 < d.dup_pct then begin
        t.dups <- t.dups + 1;
        (* The duplicate takes its own (possibly longer) path. *)
        deliver
          (Int64.add latency
             (Sim.Prng.int64 rng (Int64.max 1L d.max_delay_ns)))
      end
    end

(* Blocking receive used by each node's interrupt dispatch thread. *)
let receive ?timeout t ~node ~kind =
  let q = t.queues.(node) in
  Sim.Mailbox.receive ?timeout t.eng
    (match kind with Request -> q.requests | Reply -> q.replies)

let pending t ~node ~kind =
  let q = t.queues.(node) in
  Sim.Mailbox.length (match kind with Request -> q.requests | Reply -> q.replies)

let send_count t = t.sends

let drop_count t = t.drops

let dup_count t = t.dups

let delay_count t = t.delays

let stale_purged_count t = t.stale_purged

let partition_blocked_count t = t.partition_blocked
