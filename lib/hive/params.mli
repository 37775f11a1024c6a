(** Calibrated kernel path costs, in nanoseconds of 200-MHz processor time.

   These are *component* costs taken from the paper's measured breakdowns
   (Table 5.2 and Section 6); end-to-end latencies, ratios and workload
   slowdowns are not hardcoded anywhere — they emerge from composing these
   components with the machine model, and the benches compare the emergent
   numbers against the paper. The costs and bounds are constants; [t]
   holds only the per-boot switches. *)

(** A deliberately re-created historical bug (fault-injection runs only). *)
type planted_bug =
  | Reply_cache_off  (** servers re-execute retransmitted calls *)
  | Epoch_check_off  (** clients accept replies from a previous incarnation *)
  | Quorum_check_off  (** a minority-side accuser confirms a failure *)

type t = {
  tick_ns : int64;
  enable_preemptive_discard : bool;
  auto_reintegrate : bool;
  enable_salvage : bool;
  enable_import_cache : bool;
      (** false = the pre-cache sharing protocol (no import cache,
          single-page fault locates, one release RPC per page) *)
  planted_bug : planted_bug option;
  rpc_server_pool : int;
  rpc_queue_bound : int;
      (** queued-service backlog depth at which sheddable requests are
          refused with EBUSY *)
}
val default : t

(** parked bindings per cell before the import cache evicts *)
val import_cache_pages : int

val clock_stall_ticks : int
val rpc_timeout_ns : int64
val rpc_max_retries : int
val rpc_backoff_base_ns : int64
val rpc_backoff_cap_ns : int64

(** default end-to-end call budget across retransmits and backoff;
    0 = unlimited *)
val rpc_deadline_ns : int64

val careful_on_ns : int64
val careful_off_ns : int64
val careful_check_ns : int64
val rpc_client_send_ns : int64
val rpc_client_recv_ns : int64
val rpc_server_dispatch_ns : int64
val rpc_server_reply_ns : int64
val rpc_stub_marshal_ns : int64
val rpc_alloc_free_ns : int64
val rpc_queue_handoff_ns : int64
val rpc_context_switch_ns : int64
val fault_local_hit_ns : int64
val fault_client_fs_ns : int64
val fault_client_lock_ns : int64
val fault_client_vm_ns : int64
val fault_import_ns : int64
val fault_home_vm_ns : int64
val fault_export_ns : int64
val fault_readahead_max : int
val open_local_ns : int64
val open_remote_extra_ns : int64
val read_write_page_overhead_ns : int64
val fs_block_alloc_ns : int64
val fork_local_ns : int64
val fork_remote_extra_ns : int64
val exec_ns : int64
val max_refault_retries : int
val recovery_scan_page_ns : int64
val recovery_phase_ns : int64
val agreement_vote_ns : int64
val salvage_copy_ns : int64
val wax_period_ns : int64
val wax_scan_cost_ns : int64

(** a cell is under memory pressure when its free frames drop below
    this percentage of the frames it owns (floor of 8) *)
val wax_pressure_pct : int

(** frames a swap hint asks a pressured cell to push to swap; the
    cell's own thread validates the hint before acting *)
val wax_swap_want : int

(** length of the allocation-preference hint list *)
val wax_pref_len : int

(** clock-hand local-pressure watermark, as a percentage of owned
    frames (floor of 8) *)
val clock_hand_low_pct : int
