(* Calibrated kernel path costs, in nanoseconds of 200-MHz processor time.

   These are *component* costs taken from the paper's measured breakdowns
   (Table 5.2 and Section 6); end-to-end latencies, ratios and workload
   slowdowns are not hardcoded anywhere — they emerge from composing these
   components with the machine model, and the benches compare the emergent
   numbers against the paper. The costs and bounds are constants; only the
   per-boot switches some caller actually varies live in [t]. *)

(* A deliberately re-created historical bug, so the fuzzer's checkers can
   demonstrate they would catch a regression. *)
type planted_bug =
  | Reply_cache_off
      (* servers do not drop retransmits of already-executed calls *)
  | Epoch_check_off
      (* clients accept replies stamped with a previous incarnation *)
  | Quorum_check_off
      (* under a partition, an accuser whose reachable side is not a strict
         majority of its live set confirms instead of standing down *)

type t = {
  tick_ns : int64;
  enable_preemptive_discard : bool;
      (* ablation knob: turn off the wild-write defense's discard step *)
  auto_reintegrate : bool;
      (* recovery master reboots and reintegrates the failed cells once
         their hardware diagnostics pass (off = leave them down, as the
         paper's prototype did) *)
  enable_salvage : bool;
      (* when a cell's processors die but its memory stays readable
         (Cpu_dead_mem_alive), survivors copy generation-clean, wild-write-
         filtered imported pages into local frames instead of dropping the
         bindings (ablation knob for the salvage-vs-discard A/B) *)
  enable_import_cache : bool;
      (* park released read-only imports in a per-cell cache instead of
         freeing them, so re-access skips the locate RPC; read-ahead for
         fault streams and vectored releases ride on the same switch, so
         false selects the pre-cache sharing protocol (single-page fault
         locates, one release RPC per page) for A/B comparison *)
  import_cache_pages : int; (* parked bindings per cell before eviction *)
  planted_bug : planted_bug option; (* None outside fault-injection runs *)
  rpc_server_pool : int;
  rpc_queue_bound : int;
      (* admission control for ops declared [sheddable]: a sheddable
         request arriving while the server's queued-service backlog is at
         least this deep is refused with EBUSY instead of queued *)
}

let default =
  {
    tick_ns = 10_000_000L;
    enable_preemptive_discard = true;
    auto_reintegrate = true;
    enable_salvage = true;
    enable_import_cache = true;
    import_cache_pages = 512;
    planted_bug = None;
    rpc_server_pool = 4;
    rpc_queue_bound = 64;
  }

(* Clock and failure detection *)
let clock_check_cost_ns = 230L
let clock_stall_ticks = 2
let rpc_timeout_ns = 200_000_000L

(* At-most-once RPC transport: retransmission bounds and backoff.
   A per-attempt timeout of [rpc_timeout_ns] plus [rpc_max_retries]
   retransmits with exponential backoff (base doubling up to the cap,
   plus deterministic jitter) rides out transient link degradation; only
   exhausting every attempt reports a failure hint. *)
let rpc_max_retries = 3
let rpc_backoff_base_ns = 20_000_000L
let rpc_backoff_cap_ns = 160_000_000L

(* default end-to-end budget for a call, spanning every retransmit and
   backoff sleep; 0 = unlimited (the per-attempt schedule alone bounds the
   call). Callers override per call with ?deadline_ns. *)
let rpc_deadline_ns = 0L

(* Careful reference protocol *)
let careful_on_ns = 260L
let careful_off_ns = 200L
let careful_check_ns = 60L

(* RPC engine *)
let rpc_client_send_ns = 1_200L
let rpc_client_recv_ns = 1_150L
let rpc_server_dispatch_ns = 1_650L
let rpc_server_reply_ns = 1_200L
let rpc_stub_marshal_ns = 2_400L
let rpc_alloc_free_ns = 3_700L
let rpc_queue_handoff_ns = 13_000L
let rpc_context_switch_ns = 14_000L

(* Virtual memory paths (Table 5.2 components) *)
let fault_local_hit_ns = 6_900L
let fault_client_fs_ns = 9_000L
let fault_client_lock_ns = 5_500L
let fault_client_vm_ns = 8_700L
let fault_import_ns = 4_800L
let fault_home_vm_ns = 3_400L
let fault_export_ns = 2_000L

(* cap on the adaptive read-ahead window for sequential fault streams
   (the pre-cache protocol locates one page per fault) *)
let fault_readahead_max = 8

(* File system paths *)
let open_local_ns = 148_000L
let open_remote_extra_ns = 380_000L
let read_write_page_overhead_ns = 16_000L
let fs_block_alloc_ns = 20_000L

(* Process management *)
let fork_local_ns = 700_000L
let fork_remote_extra_ns = 250_000L
let exec_ns = 900_000L

(* Recovery *)

(* bound on firewall-denied refault retries before a write gives up with
   EFAULT (a persistent denial would otherwise livelock) *)
let max_refault_retries = 3
let recovery_scan_page_ns = 400L
let recovery_phase_ns = 14_000_000L
let agreement_vote_ns = 50_000L
let salvage_copy_ns = 9_000L (* per-page remote-read-and-copy cost *)

(* Wax *)
let wax_period_ns = 100_000_000L
let wax_scan_cost_ns = 50_000L

(* a cell is under memory pressure when its free frames drop below this
   percentage of the frames it owns (floor of 8); replaces the old fixed
   32-frame threshold, which was meaningless for both tiny test cells and
   64-cell machines *)
let wax_pressure_pct = 5

(* frames a swap hint asks a pressured cell to push to swap; the cell's
   own thread validates the hint before acting *)
let wax_swap_want = 16

(* length of the allocation-preference hint list (the k cells with the
   most free memory, selected without sorting every cell) *)
let wax_pref_len = 4

(* clock-hand local-pressure watermark, as a percentage of owned frames
   (floor of 8); was a fixed 64 frames *)
let clock_hand_low_pct = 1
