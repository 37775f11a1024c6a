(* Intercell RPC on top of the SIPS hardware primitive (Section 6).

   The paper's SIPS is "as reliable as a cache miss", so the original
   transport had no retransmission or duplicate suppression. Our fault
   model is harsher: a degraded interconnect (a flaky coherence controller
   on a failing node) can drop, duplicate or delay messages, and a node
   failure can eat messages in flight. The transport therefore provides
   at-most-once semantics end to end:

   - the client retransmits a timed-out request up to [rpc_max_retries]
     times with exponential backoff plus deterministic jitter, and reports
     a failure hint only once every attempt is exhausted;
   - the server keeps a per-client-cell reply cache so a retransmitted
     request is answered from cache (or suppressed while the original is
     still executing) instead of re-executed — ops declared [idempotent]
     skip the cache;
   - call ids fold in the client cell's incarnation number, and every
     message carries its epoch, so requests and replies from before a
     failure/reboot are discarded rather than matched against a
     reincarnated cell's fresh calls.

   A cache line (128 bytes) carries most argument/result records, and
   larger data is passed by reference through shared memory (costed as a
   copy plus allocation, per Table 5.2).

   The base system services requests at interrupt level on the receiving
   node. A queuing service and server-process pool handles longer-latency
   requests (those that may block, e.g. for I/O): an initial interrupt-level
   RPC launches the operation and a completion reply returns the result. *)

module Count = struct
  let calls =
    Sim.Stats.declare ~name:"rpc.calls" ~unit:"calls" ~doc:"RPCs issued"
  let deadline_exceeded =
    Sim.Stats.declare ~name:"rpc.deadline_exceeded" ~unit:"calls"
      ~doc:"RPCs that ran out of deadline budget"
  let dup_suppressed =
    Sim.Stats.declare ~name:"rpc.dup_suppressed" ~unit:"count"
      ~doc:"duplicate requests suppressed by the reply cache"
  let expired =
    Sim.Stats.declare ~name:"rpc.expired" ~unit:"count"
      ~doc:"queued requests dropped past their deadline"
  let late_replies =
    Sim.Stats.declare ~name:"rpc.late_replies" ~unit:"count"
      ~doc:"replies that arrived after their call gave up"
  let queued =
    Sim.Stats.declare ~name:"rpc.queued" ~unit:"count"
      ~doc:"requests handed to a server process"
  let retransmits =
    Sim.Stats.declare ~name:"rpc.retransmits" ~unit:"count"
      ~doc:"RPC retransmissions"
  let retransmits_seen =
    Sim.Stats.declare ~name:"rpc.retransmits_seen" ~unit:"count"
      ~doc:"retransmitted requests received"
  let served =
    Sim.Stats.declare ~name:"rpc.served" ~unit:"count"
      ~doc:"RPC requests served"
  let shed =
    Sim.Stats.declare ~name:"rpc.shed" ~unit:"count"
      ~doc:"requests shed with EBUSY"
  let stale_reply_drops =
    Sim.Stats.declare ~name:"rpc.stale_reply_drops" ~unit:"count"
      ~doc:"replies from an earlier incarnation dropped"
  let stale_request_drops =
    Sim.Stats.declare ~name:"rpc.stale_request_drops" ~unit:"count"
      ~doc:"requests from an earlier incarnation dropped"
  let timeouts =
    Sim.Stats.declare ~name:"rpc.timeouts" ~unit:"count"
      ~doc:"RPC attempts that timed out"
end

(* The bugs the at-most-once machinery fixes can be deliberately
   re-created per system — boot with [Params.planted_bug] set to
   [Reply_cache_off] or [Epoch_check_off] — so the fuzzer's checkers can
   demonstrate they would catch a regression. Keeping the switch in the
   system's params (not global refs) means concurrent campaigns on other
   domains are unaffected. *)

type handler =
  Types.system -> Types.cell -> src:Types.cell_id -> Types.payload ->
  Types.handler_action

(* Typed operation descriptors. Every RPC op is declared once, up front,
   with its wire-size defaults and timeout, and served once by the module
   that owns it; a request carries the descriptor itself, so the server
   reads the handler and the op's properties straight from it. The
   descriptor name keys the per-op latency histograms and trace spans. *)
module Op = struct
  type t = {
    name : string;
    arg_bytes : int;
    reply_bytes : int;
    idempotent : bool; (* read-only: replays are harmless, skip the cache *)
    sheddable : bool;
        (* interactive traffic the server may refuse with EBUSY under
           load; kernel ops are never shed *)
    mutable handler : handler option; (* set once by [serve] *)
  }

  (* Names key the histograms, so they must be unique. *)
  let declared : (string, unit) Hashtbl.t = Hashtbl.create 64

  let declare ?(arg_bytes = 64) ?(reply_bytes = 64) ?(idempotent = false)
      ?(sheddable = false) name =
    if Hashtbl.mem declared name then
      invalid_arg ("Rpc.Op.declare: duplicate " ^ name);
    Hashtbl.replace declared name ();
    { name; arg_bytes; reply_bytes; idempotent; sheddable; handler = None }
end

let serve (op : Op.t) h =
  match op.Op.handler with
  | Some _ -> invalid_arg ("Rpc.serve: duplicate " ^ op.Op.name)
  | None -> op.Op.handler <- Some h

type Flash.Sips.message +=
  | M_request of {
      call_id : int;
      src_cell : int;
      src_epoch : int; (* client incarnation when the call started *)
      attempt : int; (* 0 = original transmission *)
      op : Op.t;
      arg : Types.payload;
      arg_bytes : int;
      deadline_ns : int64;
          (* absolute end-to-end deadline propagated from the client,
             0 = none. The server pool drops a queued request whose
             deadline already passed instead of executing work whose
             caller has provably given up — so a burst of abandoned
             requests drains at dequeue speed rather than occupying
             the pool for their full service time. *)
    }
  | M_reply of {
      call_id : int;
      dst_epoch : int; (* echo of the request's [src_epoch] *)
      outcome : Types.rpc_outcome;
    }

(* Marshaling cost on one side of a call carrying [bytes] of payload:
   stub execution, plus, beyond one cache line, buffer allocation and a
   copy through shared memory. *)
let marshal_cost bytes =
  if bytes <= 0 then 0L
  else if bytes <= Flash.Sips.max_payload then Params.rpc_stub_marshal_ns
  else
    Int64.add
      (Int64.add Params.rpc_stub_marshal_ns Params.rpc_alloc_free_ns)
      (Flash.Config.copy_cost bytes)

let report_hint (sys : Types.system) (from : Types.cell) suspect reason =
  match sys.Types.on_hint with
  | Some f -> f from ~suspect ~reason
  | None -> ()

(* Epoch-tagged call ids: the cell id and its incarnation occupy the high
   digits, the per-incarnation sequence the low ones, so ids can never
   collide across a reboot — a late pre-failure reply cannot even
   numerically match a post-reboot call. *)
let make_call_id (c : Types.cell) =
  c.Types.next_call_id <- c.Types.next_call_id + 1;
  (((c.Types.cell_id * 1000) + (c.Types.incarnation mod 1000))
   * 1_000_000_000)
  + c.Types.next_call_id

(* Send the reply for a completed request back to the caller. *)
let send_reply (sys : Types.system) (server : Types.cell) ~src_cell
    ~src_epoch ~call_id outcome =
  Sim.Engine.delay Params.rpc_server_reply_ns;
  let client_cell = sys.Types.cells.(src_cell) in
  try
    Flash.Sips.send
      (Flash.Machine.sips sys.Types.machine)
      ~from_proc:server.Types.boss_node
      ~to_node:client_cell.Types.boss_node ~kind:Flash.Sips.Reply ~size:64
      (M_reply { call_id; dst_epoch = src_epoch; outcome })
  with Flash.Sips.Target_failed _ -> ()

(* Find (or create) the at-most-once session for a client cell, refusing
   requests from an epoch older than the one on file: a reincarnated
   client can never retransmit its previous life's calls, so anything
   older is a stale message that must not execute. *)
let session_for (server : Types.cell) ~src_cell ~src_epoch =
  let s =
    match Hashtbl.find_opt server.Types.rpc_sessions src_cell with
    | Some s -> s
    | None ->
      let s =
        { Types.rs_epoch = src_epoch;
          rs_max_call = 0;
          rs_replies = Hashtbl.create 32 }
      in
      Hashtbl.replace server.Types.rpc_sessions src_cell s;
      s
  in
  if src_epoch < s.Types.rs_epoch then None
  else begin
    if src_epoch > s.Types.rs_epoch then begin
      (* The client rebooted: its old incarnation's replies can never be
         asked for again, so the cache restarts with the new epoch. *)
      Hashtbl.reset s.Types.rs_replies;
      s.Types.rs_epoch <- src_epoch;
      s.Types.rs_max_call <- 0
    end;
    Some s
  end

(* Bound the reply cache: a client retransmits within a handful of
   timeouts, so entries far below the highest call id seen can no longer
   be asked for. *)
let cache_window = 4096

let prune_session (s : Types.rpc_session) =
  if Hashtbl.length s.Types.rs_replies > 2 * cache_window then begin
    let cutoff = s.Types.rs_max_call - cache_window in
    let stale =
      Hashtbl.fold
        (fun k _ acc -> if k < cutoff then k :: acc else acc)
        s.Types.rs_replies []
    in
    List.iter (Hashtbl.remove s.Types.rs_replies) stale
  end

(* Interrupt-level service of one incoming request. *)
let service_request (sys : Types.system) (server : Types.cell) env =
  let p = sys.Types.params in
  match env.Flash.Sips.msg with
  | M_request
      { call_id; src_cell; src_epoch; attempt; op; arg; arg_bytes;
        deadline_ns } -> (
    Types.bump server Count.served;
    if attempt > 0 then Types.bump server Count.retransmits_seen;
    let cpu = Flash.Machine.cpu sys.Types.machine server.Types.boss_node in
    Flash.Cpu.steal cpu Params.rpc_server_dispatch_ns;
    if arg_bytes > Flash.Sips.max_payload then
      Sim.Engine.delay (marshal_cost arg_bytes);
    (* Handler execution time per op: for immediate service that is the
       handler itself; for queued service, the work function in the pool
       process (dispatch cost is negligible and not double-counted). *)
    let timed : 'a. (unit -> 'a) -> 'a =
     fun f ->
      let t0 = Sim.Engine.now sys.Types.eng in
      let result =
        (* Skip the span-name concat and args list when untraced. *)
        if Sim.Event.enabled sys.Types.events then
          Sim.Event.span sys.Types.events ~cell:server.Types.cell_id
            ~args:[ ("src", Sim.Event.Int src_cell) ]
            ~cat:Sim.Event.Rpc ("rpc.serve:" ^ op.Op.name) f
        else f ()
      in
      Sim.Stats.hist_add
        (Types.hist_for sys.Types.rpc_server_ns op.Op.name)
        (Int64.sub (Sim.Engine.now sys.Types.eng) t0);
      result
    in
    let session =
      if op.Op.idempotent then None
      else session_for server ~src_cell ~src_epoch
    in
    let stale = (not op.Op.idempotent) && session = None in
    if stale then Types.bump server Count.stale_request_drops
    else begin
      let cached =
        match session with
        | Some s when p.Params.planted_bug <> Some Params.Reply_cache_off ->
          Hashtbl.find_opt s.Types.rs_replies call_id
        | _ -> None
      in
      match cached with
      | Some (Types.Reply_done outcome) ->
        (* Retransmit of a completed request: resend the cached reply. *)
        Types.bump server Count.dup_suppressed;
        send_reply sys server ~src_cell ~src_epoch ~call_id outcome
      | Some Types.Reply_in_progress ->
        (* The original is still executing; its reply will serve both. *)
        Types.bump server Count.dup_suppressed
      | None -> (
        (match session with
        | Some s ->
          Hashtbl.replace s.Types.rs_replies call_id Types.Reply_in_progress;
          if call_id > s.Types.rs_max_call then s.Types.rs_max_call <- call_id;
          prune_session s
        | None -> ());
        (* Audit trail for the at-most-once invariant: count each actual
           execution of a non-idempotent op body, keyed by this server
           incarnation and the call id. *)
        let record_exec () =
          if not op.Op.idempotent then begin
            let key = (server.Types.cell_id, server.Types.incarnation, call_id) in
            let n =
              match Hashtbl.find_opt sys.Types.rpc_executions key with
              | Some (_, n) -> n
              | None -> 0
            in
            Hashtbl.replace sys.Types.rpc_executions key (op.Op.name, n + 1)
          end
        in
        let complete outcome =
          (match session with
          | Some s ->
            Hashtbl.replace s.Types.rs_replies call_id
              (Types.Reply_done outcome)
          | None -> ());
          send_reply sys server ~src_cell ~src_epoch ~call_id outcome
        in
        match op.Op.handler with
        | None -> complete (Error Types.EFAULT)
        | Some h -> (
          let t0 = Sim.Engine.now sys.Types.eng in
          match
            record_exec ();
            h sys server ~src:src_cell arg
          with
          | Types.Immediate outcome ->
            (* Interrupt-level service: record the handler time and mark it
               as an instant (it never blocks, unlike queued spans). *)
            let dt = Int64.sub (Sim.Engine.now sys.Types.eng) t0 in
            Sim.Stats.hist_add
              (Types.hist_for sys.Types.rpc_server_ns op.Op.name) dt;
            if Sim.Event.enabled sys.Types.events then
              Sim.Event.instant sys.Types.events ~cell:server.Types.cell_id
                ~args:
                  [ ("src", Sim.Event.Int src_cell); ("dur_ns", Sim.Event.I64 dt)
                  ]
                ~cat:Sim.Event.Rpc ("rpc.serve:" ^ op.Op.name);
            complete outcome
          | Types.Queued _
            when op.Op.sheddable
                 && (Sim.Mailbox.length server.Types.rpc_queue
                     >= p.Params.rpc_queue_bound
                    || server.Types.cstatus <> Types.Cell_up) ->
            (* Admission control: a sheddable request meeting a saturated
               backlog — or a cell still mid-recovery — is refused right
               at interrupt level with a fast-fail EBUSY, so overload (or
               a rebooting cell) degrades into explicit shed counts the
               client can redirect on, instead of queue collapse. Going
               through [complete] keeps the reply cache coherent for
               retransmits of the shed call. *)
            Types.bump server Count.shed;
            complete (Error Types.EBUSY)
          | Types.Queued f ->
            (* Longer-latency request: hand off to the server process pool;
               the completion reply is sent from the server process. *)
            Types.bump server Count.queued;
            Flash.Cpu.steal cpu Params.rpc_queue_handoff_ns;
            Sim.Mailbox.send sys.Types.eng server.Types.rpc_queue (fun () ->
                Sim.Engine.delay Params.rpc_context_switch_ns;
                if
                  Int64.compare deadline_ns 0L > 0
                  && Int64.compare (Sim.Engine.now sys.Types.eng) deadline_ns
                     > 0
                then begin
                  (* Deadline propagation: the caller's end-to-end budget
                     already ran out while this request sat in the queue,
                     so it has provably given up (or soon will) on any
                     reply — drop the work instead of serving a ghost. *)
                  Types.bump server Count.expired;
                  complete (Error Types.ETIMEDOUT)
                end
                else
                  let outcome =
                    timed (fun () ->
                        try f () with Types.Syscall_error e -> Error e)
                  in
                  complete outcome)
          | exception Types.Syscall_error e -> complete (Error e)))
    end)
  | _ -> ()

(* Deliver one reply to the pending-call table. A reply stamped with an
   epoch other than the cell's current incarnation was addressed to a
   previous life and is dropped; a reply whose call is no longer pending
   arrived after the caller timed out (the op executed but the caller saw
   EHOSTDOWN) and is counted and dropped. *)
let service_reply (sys : Types.system) (client : Types.cell) env =
  match env.Flash.Sips.msg with
  | M_reply { call_id; dst_epoch; outcome } ->
    if
      dst_epoch <> client.Types.incarnation
      && sys.Types.params.Params.planted_bug <> Some Params.Epoch_check_off
    then
      Types.bump client Count.stale_reply_drops
    else begin
      if dst_epoch <> client.Types.incarnation then
        (* Only reachable with the epoch check disabled: record the
           acceptance so the invariant checker can flag it. *)
        sys.Types.rpc_stale_accepts <-
          Printf.sprintf
            "cell %d accepted reply for call %d from epoch %d while in \
             incarnation %d"
            client.Types.cell_id call_id dst_epoch client.Types.incarnation
          :: sys.Types.rpc_stale_accepts;
      match Hashtbl.find_opt client.Types.pending_calls call_id with
      | None -> Types.bump client Count.late_replies
      | Some pc ->
        Hashtbl.remove client.Types.pending_calls call_id;
        Sim.Ivar.fill sys.Types.eng pc.Types.call_done outcome
    end
  | _ -> ()

(* Per-cell kernel threads: an interrupt dispatcher for requests, one for
   replies, and a pool of server processes for queued requests. *)
let start_threads (sys : Types.system) (cell : Types.cell) =
  let eng = sys.Types.eng in
  let sips = Flash.Machine.sips sys.Types.machine in
  let node = cell.Types.boss_node in
  let spawn name body = ignore (Types.spawn_kernel sys cell ~name body) in
  spawn
    (Printf.sprintf "cell%d.rpc.reqs" cell.Types.cell_id)
    (fun () ->
      let rec loop () =
        match Flash.Sips.receive sips ~node ~kind:Flash.Sips.Request with
        | Some env ->
          service_request sys cell env;
          loop ()
        | None -> ()
      in
      loop ());
  spawn
    (Printf.sprintf "cell%d.rpc.replies" cell.Types.cell_id)
    (fun () ->
      let rec loop () =
        match Flash.Sips.receive sips ~node ~kind:Flash.Sips.Reply with
        | Some env ->
          service_reply sys cell env;
          loop ()
        | None -> ()
      in
      loop ());
  for i = 1 to sys.Types.params.Params.rpc_server_pool do
    spawn
      (Printf.sprintf "cell%d.rpc.pool%d" cell.Types.cell_id i)
      (fun () ->
        let rec loop () =
          match Sim.Mailbox.receive eng cell.Types.rpc_queue with
          | Some work ->
            work ();
            loop ()
          | None -> ()
        in
        loop ())
  done

(* Exponential backoff before retransmission [n]: base doubled per attempt
   up to the cap, plus up to 50% deterministic jitter so retransmissions
   from different callers spread out. *)
let backoff_ns rng n =
  let shifted = Int64.shift_left Params.rpc_backoff_base_ns n in
  let b =
    if
      Int64.compare shifted Params.rpc_backoff_cap_ns > 0
      || Int64.compare shifted 0L <= 0
    then Params.rpc_backoff_cap_ns
    else shifted
  in
  Int64.add b (Sim.Prng.int64 rng (Int64.max 1L (Int64.div b 2L)))

(* Client side of a call. Transmits, waits one timeout, and retransmits
   with backoff up to [rpc_max_retries] times; returns [Error EHOSTDOWN]
   after the last timeout or on delivery failure. A failure hint is
   reported only once every attempt is exhausted, so transient link
   degradation does not escalate straight into distributed agreement.
   Payload sizes default from the op descriptor and the timeout from
   [Params.rpc_timeout_ns]; per-call overrides remain for variable-size
   payloads and short probes. *)
let call (sys : Types.system) ~target ~(op : Op.t) ?arg_bytes ?reply_bytes
    ?timeout_ns ?deadline_ns arg =
  (* A live thread of a down cell gets [EHOSTDOWN] below, no bug. *)
  let from = Kmem.owner_cell sys in
  let arg_bytes =
    match arg_bytes with Some b -> b | None -> op.Op.arg_bytes
  in
  let reply_bytes =
    match reply_bytes with Some b -> b | None -> op.Op.reply_bytes
  in
  let timeout_ns =
    match timeout_ns with Some t -> t | None -> Params.rpc_timeout_ns
  in
  let deadline_ns =
    match deadline_ns with Some d -> d | None -> Params.rpc_deadline_ns
  in
  let eng = sys.Types.eng in
  let op_name = op.Op.name in
  Types.bump from Count.calls;
  let t0 = Sim.Engine.now eng in
  (* End-to-end budget: the absolute instant past which no further
     waiting or retransmission may happen, spanning every attempt and
     backoff sleep (the per-attempt [timeout_ns] alone would multiply the
     caller's intent by the whole retry schedule). 0 = unlimited. *)
  let t_deadline =
    if Int64.compare deadline_ns 0L > 0 then Some (Int64.add t0 deadline_ns)
    else None
  in
  let budget_left () =
    match t_deadline with
    | None -> None
    | Some td -> Some (Int64.sub td (Sim.Engine.now eng))
  in
  let budget_exhausted () =
    match budget_left () with
    | Some r -> Int64.compare r 0L <= 0
    | None -> false
  in
  let cap_to_budget ns =
    match budget_left () with
    | Some r when Int64.compare r ns < 0 -> Int64.max r 0L
    | _ -> ns
  in
  (* Record the whole-call latency the client observed, on every exit
     path; the enclosing span closes even if the thread is killed. *)
  let finish outcome =
    Sim.Stats.hist_add
      (Types.hist_for sys.Types.rpc_client_ns op_name)
      (Int64.sub (Sim.Engine.now eng) t0);
    outcome
  in
  let traced body =
    (* Build the span name and args only when a sink will see them. *)
    if Sim.Event.enabled sys.Types.events then
      Sim.Event.span sys.Types.events ~cell:from.Types.cell_id
        ~args:[ ("target", Sim.Event.Int target) ]
        ~cat:Sim.Event.Rpc
        ("rpc.call:" ^ op_name)
        body
    else body ()
  in
  traced @@ fun () ->
  (* A cell whose processors are dead sends nothing. *)
  if (not (Types.cell_alive from)) || not (List.mem target from.Types.live_set)
  then finish (Error Types.EHOSTDOWN)
  else begin
    Sim.Engine.delay Params.rpc_client_send_ns;
    Sim.Engine.delay (marshal_cost arg_bytes);
    let call_id = make_call_id from in
    (* The epoch travels with the call, stamped once when the id is
       minted: a retransmit after the calling cell reboots mid-call must
       still carry the old incarnation (so the server's session filter
       stale-drops it) — re-reading [from.incarnation] here would let a
       previous life's call id re-execute under the new epoch. *)
    let src_epoch = from.Types.incarnation in
    let pc = { Types.call_id; call_done = Sim.Ivar.create () } in
    Hashtbl.replace from.Types.pending_calls call_id pc;
    let target_cell = sys.Types.cells.(target) in
    let give_up ?hint err =
      Hashtbl.remove from.Types.pending_calls call_id;
      (match hint with
      | Some reason -> report_hint sys from target reason
      | None -> ());
      finish (Error err)
    in
    let succeed outcome =
      Sim.Engine.delay Params.rpc_client_recv_ns;
      if reply_bytes > Flash.Sips.max_payload then
        Sim.Engine.delay (marshal_cost reply_bytes);
      finish outcome
    in
    let transmit attempt =
      try
        Flash.Sips.send
          (Flash.Machine.sips sys.Types.machine)
          ~from_proc:from.Types.boss_node
          ~to_node:target_cell.Types.boss_node
          ~kind:Flash.Sips.Request
          ~size:(min arg_bytes Flash.Sips.max_payload)
          (M_request
             { call_id;
               src_cell = from.Types.cell_id;
               src_epoch;
               attempt;
               op;
               arg;
               arg_bytes;
               deadline_ns =
                 (match t_deadline with Some td -> td | None -> 0L) });
        true
      with Flash.Sips.Target_failed _ -> false
    in
    let give_up_deadline () =
      Types.bump from Count.deadline_exceeded;
      give_up Types.ETIMEDOUT
    in
    let rec attempt n =
      (* The reply may have landed during the previous backoff sleep. *)
      match Sim.Ivar.peek pc.Types.call_done with
      | Some outcome -> succeed outcome
      | None ->
        if not (Types.cell_alive from) then
          (* Our own cell died while the call was in flight: its
             processors send nothing more. A reboot leaves [from], the
             old record, down, so this also fails a call orphaned by the
             reboot, whose retransmits would be stale-dropped and whose
             late reply would be discarded. *)
          give_up Types.EHOSTDOWN
        else if not (List.mem target from.Types.live_set) then
          (* Recovery declared the target dead while we were waiting. *)
          give_up Types.EHOSTDOWN
        else if budget_exhausted () then give_up_deadline ()
        else if not (transmit n) then
          give_up ~hint:"rpc: target node down" Types.EHOSTDOWN
        else begin
          (* The client processor spins waiting for the reply; it only
             context switches after a timeout of 50 us, which almost never
             occurs. *)
          match
            Sim.Ivar.read
              ~timeout:(cap_to_budget timeout_ns)
              eng pc.Types.call_done
          with
          | Some outcome -> succeed outcome
          | None ->
            if budget_exhausted () then give_up_deadline ()
            else if n >= Params.rpc_max_retries then begin
              Types.bump from Count.timeouts;
              give_up ~hint:"rpc: timeout" Types.EHOSTDOWN
            end
            else begin
              Types.bump from Count.retransmits;
              Sim.Engine.delay
                (cap_to_budget (backoff_ns from.Types.rpc_rng n));
              attempt (n + 1)
            end
        end
    in
    match attempt 0 with
    | outcome -> outcome
    | exception e ->
      (* The calling thread is being torn down (killed by recovery or a
         panic) while the call is in flight: drop its bookkeeping so the
         entry cannot linger as a phantom orphan in the pending-call
         table. *)
      Hashtbl.remove from.Types.pending_calls call_id;
      raise e
  end
