(** Intercell RPC on top of the SIPS hardware primitive (Section 6).

   The paper's SIPS is "as reliable as a cache miss"; our fault model is
   harsher (degraded links can drop, duplicate or delay messages, and a
   node failure eats messages in flight), so the transport provides
   at-most-once semantics: bounded client retransmission with exponential
   backoff + jitter, a per-client reply cache on the server so a
   retransmitted request is answered from cache instead of re-executed,
   and epoch-tagged call ids (the cell incarnation number) so traffic
   from before a failure/reboot is discarded. A failure hint is reported
   only after every retransmission is exhausted.

   The base system services requests at interrupt level on the receiving
   node. A queuing service and server-process pool handles longer-latency
   requests (those that may block, e.g. for I/O): an initial interrupt-level
   RPC launches the operation and a completion reply returns the result.

   Operations are identified by {!Op.t} descriptors declared once with
   {!Op.declare} and served once with {!serve}, both at the owning
   module's initialization. Calls take the descriptor and requests carry
   it, so an undeclared or misspelled op cannot compile, sizes cannot be
   mismatched between call sites, the server dispatches straight to the
   descriptor's handler, and the descriptor's name keys the per-op
   latency histograms. *)

(** Server-side body of an op: runs at interrupt level on the target
    cell and either answers at once ([Immediate]) or hands a longer
    (possibly blocking) work function to the server pool ([Queued]). *)
type handler =
    Types.system ->
    Types.cell ->
    src:Types.cell_id -> Types.payload -> Types.handler_action

(** Typed RPC operation descriptors. *)
module Op : sig
  type t

  (** Declare an operation; raises [Invalid_argument] on a duplicate name.
      Call once at module initialization. [arg_bytes] and [reply_bytes]
      (default 64) are the payload sizes a call defaults to.
      Declare [~idempotent:true] only for read-only ops whose
      re-execution is observably harmless: they skip the reply cache.
      Declare [~sheddable:true] for interactive traffic the server may
      refuse with [EBUSY] when its queued-service backlog reaches
      [Params.rpc_queue_bound] or the cell is still mid-recovery; kernel
      ops are never shed. *)
  val declare :
    ?arg_bytes:int ->
    ?reply_bytes:int ->
    ?idempotent:bool ->
    ?sheddable:bool ->
    string ->
    t
end

(** Install [op]'s handler; raises [Invalid_argument] if [op] is already
    served. Call once, at the top level of the module that declares [op]:
    top-level code runs on the main domain at program start, before any
    simulation or [Domain.spawn], and any code able to send [op] links
    that module. A request for a declared but unserved op is answered
    [Error EFAULT]. *)
val serve : Op.t -> handler -> unit

type Flash.Sips.message +=
    M_request of { call_id : int; src_cell : int; src_epoch : int;
      attempt : int; op : Op.t; arg : Types.payload; arg_bytes : int;
      deadline_ns : int64;
          (** absolute client deadline propagated with the request,
              0 = none; the server pool drops queued requests whose
              deadline has already passed *)
    }
  | M_reply of { call_id : int; dst_epoch : int;
      outcome : Types.rpc_outcome;
    }

val report_hint :
  Types.system ->
  Types.cell -> Types.cell_id -> string -> unit
val start_threads : Types.system -> Types.cell -> unit

(** Call [op] on [target] as {!Kmem.owner_cell}, which raises its bug,
    sending nothing, for a thread no cell owns. Payload sizes default
    from the descriptor and [timeout_ns] from [Params.rpc_timeout_ns]; the optional arguments
    override them. The timeout is per attempt: a call retransmits up to
    [Params.rpc_max_retries] times before returning [Error EHOSTDOWN].
    [deadline_ns] is the end-to-end budget spanning every attempt and
    backoff sleep (default [Params.rpc_deadline_ns]; 0 = unlimited):
    when it runs out the call stops retransmitting and returns
    [Error ETIMEDOUT] without raising a failure hint. A call from a cell
    that is down, or that goes down before a retransmit, returns
    [Error EHOSTDOWN] without sending. *)
val call :
  Types.system ->
  target:Types.cell_id ->
  op:Op.t ->
  ?arg_bytes:int ->
  ?reply_bytes:int ->
  ?timeout_ns:int64 ->
  ?deadline_ns:int64 -> Types.payload -> Types.rpc_outcome
