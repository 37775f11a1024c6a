(* Shared kernel state types.

   Hive's subsystems (VM, FS, RPC, recovery, ...) operate on one mutually
   recursive bundle of mutable state types, defined here once; each
   subsystem module implements behavior over them. This mirrors a kernel's
   shared header structure and avoids module cycles. *)

type cell_id = int

type pid = int

(* UNIX-style error results surfaced to processes. *)
type errno =
  | EIO (* data lost: generation mismatch after preemptive discard *)
  | ENOENT
  | EBADF
  | ESRCH
  | EFAULT
  | EAGAIN
  | EHOSTDOWN (* cell owning the resource is down *)
  | EBUSY (* server shed the request: queue saturated or mid-recovery *)
  | ETIMEDOUT (* end-to-end deadline budget exhausted across retries *)
  | ENOSPC (* file area would grow into the swap partition *)

exception Syscall_error of errno

let errno_to_string = function
  | EIO -> "EIO"
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | ESRCH -> "ESRCH"
  | EFAULT -> "EFAULT"
  | EAGAIN -> "EAGAIN"
  | EHOSTDOWN -> "EHOSTDOWN"
  | EBUSY -> "EBUSY"
  | ETIMEDOUT -> "ETIMEDOUT"
  | ENOSPC -> "ENOSPC"

(* File identity: the data home cell plus an inode number local to it. *)
type fid = { home : cell_id; ino : int }

type generation = int

(* Logical page identity: the object the page belongs to plus the page
   offset within it (the IRIX "logical page id": tag + offset). *)
type obj_tag =
  | File_obj of fid
  | Anon_obj of { cow_home : cell_id; node_id : int }

type logical_id = { tag : obj_tag; page : int }

(* What a pfdat stands for in logical-level sharing (Section 5.1): the
   data home's record of a page, or an *extended pfdat* naming a page
   that lives elsewhere. *)
type role =
  | Home
      (* this cell manages the page, in an own or a borrowed frame; the
         pfdat's [exported_to] and [write_granted_to] are the data home's
         records *)
  | Import of { home : cell_id; gen : generation; mutable writable : bool }
      (* a client binding to a page of [home], imported under file
         generation [gen]: a parked binding is only valid while the home's
         generation still equals it *)
  | Salvaged of { home : cell_id }
      (* a local copy of a clean page rescued from the dead [home], whose
         memory outlived its processors; purged when that home
         reintegrates *)
  | Dropped (* an import, or a borrowed frame, that this cell let go *)

(* Page frame data structure. Every cell has a pfdat for each frame it
   owns and is using; *extended pfdats* are allocated dynamically to name
   a remote page (logical-level import) or a borrowed remote frame
   (physical-level borrow). Whether a frame is free, in use or loaned is
   the frame pool's state ([frame_pool]), not a pfdat field. *)
type pfdat = {
  pfn : int;
  mutable lid : logical_id option;
  mutable dirty : bool;
  mutable refs : int;
  mutable pins : int;
      (* short-term holds by in-flight kernel operations (e.g. a locate
         batch between page-in and export): keeps the frame out of
         reclaim/swap without counting as a process mapping *)
  mutable role : role;
  (* data-home side *)
  mutable exported_to : cell_id list; (* client cells *)
  mutable write_granted_to : cell_id list; (* firewall grants outstanding *)
  mutable ext_prev : pfdat;
  mutable ext_next : pfdat;
      (* links in the cell's import index while this is an extended pfdat
         bound in page_hash; [Pfdat.unlinked] otherwise *)
  mutable park_prev : pfdat;
  mutable park_next : pfdat;
      (* links in the cell's park list while this is a parked binding;
         [Pfdat.unlinked] otherwise *)
}

(* The pfdat hash table keyed by logical page id. It hashes exactly like
   the polymorphic [Hashtbl] (same function, same buckets, so the same
   iteration order) but compares keys with typed equality. *)
module Page_hash = Hashtbl.Make (struct
  type t = logical_id

  let equal (a : t) (b : t) =
    a.page = b.page
    &&
    match (a.tag, b.tag) with
    | File_obj f, File_obj g -> f.home = g.home && f.ino = g.ino
    | Anon_obj x, Anon_obj y -> x.cow_home = y.cow_home && x.node_id = y.node_id
    | File_obj _, Anon_obj _ | Anon_obj _, File_obj _ -> false

  let hash = Hashtbl.hash
end)

(* What a cell holds of one physical frame: the states of the frame
   machine in [Page_alloc], whose transitions are the only writers. *)
type frame_state =
  | Free (* in the cell's free pool *)
  | In_use (* allocated: [frames] holds its pfdat *)
  | Loaned of cell_id (* an own frame lent to that cell's allocator *)
  | Not_held (* another cell's frame, or the kernel reserve *)

(* A cell's frames. Its own frames are the pfns [own_lo, own_hi); those
   from [own_lo + fresh] up have been free since boot, and [held] has the
   state of every other frame the cell owns or borrows. The free pool is
   [own_free], the fresh frames and [borrowed_free], in that order. *)
type frame_pool = {
  own_lo : int;
  own_hi : int;
  mutable fresh : int;
  mutable own_free : int list;
  held : (int, frame_state) Hashtbl.t;
  mutable borrowed_free : int list;
  mutable nfree : int;
}

(* Is [pfn] one of the cell's own frames (outside the kernel reserve)? *)
let own_frame (pool : frame_pool) pfn = pfn >= pool.own_lo && pfn < pool.own_hi

(* A file homed on some cell. [disk_block] is its start block on the data
   home's disk; pages cached in memory live in the pfdat table. *)
type file = {
  fid : fid;
  mutable size : int;
  mutable generation : generation;
      (* bumped when a dirty page is preemptively discarded *)
  mutable disk_block : int;
  mutable cached_pages : (int, pfdat) Hashtbl.t; (* page index -> frame *)
  mutable disk_content : Bytes.t; (* stable storage contents *)
  mutable unlinked : bool;
}

type vnode =
  | Local_vnode of file
  | Shadow_vnode of { fid : fid; path : string; data_home : cell_id }

let vnode_fid = function
  | Local_vnode f -> f.fid
  | Shadow_vnode s -> s.fid

(* Open file description; [opened_gen] implements the generation-number
   check: accesses through a descriptor opened before a discard get EIO. *)
type fd = {
  vnode : vnode;
  mutable pos : int;
  opened_gen : generation;
  fd_writable : bool;
}

(* Reference to a copy-on-write tree node serialized in the kernel memory
   of [cow_cell]. *)
type cow_ref = { cow_cell : cell_id; cow_addr : int }

type region_kind =
  | File_region of vnode * int (* starting page within the file *)
  | Anon_region of cow_ref

type region = {
  start_page : int; (* virtual page number *)
  npages : int;
  kind : region_kind;
  reg_writable : bool;
  mutable opened_gen : generation;
}

(* A virtual-to-physical mapping held by a process: enough to model TLB
   flushes and remote-mapping removal during recovery. *)
type mapping = {
  map_lid : logical_id;
  map_pf : pfdat;
  map_writable : bool;
}

type proc_state = Proc_running | Proc_zombie

type process = {
  pid : pid;
  mutable proc_cell : cell_id;
  mutable assigned_node : int; (* the node whose CPU runs this process *)
  mutable pname : string;
  mutable thread : Sim.Engine.thread option;
  mutable regions : region list;
  mutable mappings : (int, mapping) Hashtbl.t; (* virtual page -> mapping *)
  mutable fds : (int, fd) Hashtbl.t;
  mutable next_fd : int;
  mutable pstate : proc_state;
  mutable exit_code : int option;
  mutable killed_by_failure : bool;
  exit_ivar : int Sim.Ivar.t;
  mutable uses_cells : cell_id list; (* cells whose resources it depends on *)
}

(* Universal payload for RPC arguments/results; each subsystem extends it. *)
type payload = ..

type payload += P_unit | P_int of int

type rpc_outcome = (payload, errno) result

(* What an interrupt-level handler decides to do with a request. *)
type handler_action =
  | Immediate of rpc_outcome (* serviced entirely at interrupt level *)
  | Queued of (unit -> rpc_outcome) (* must block: run in a server process *)

type cell_status = Cell_up | Cell_down

(* Kernel heap for structures published to other cells (serialized into
   simulated physical memory so careful references and corruptions are
   genuine). *)
type kmem = {
  kmem_base : int; (* physical byte address *)
  kmem_limit : int;
  mutable kmem_next : int;
  mutable kmem_free : (int * int) list; (* (addr, size) free blocks *)
}

type pending_call = {
  call_id : int;
  call_done : rpc_outcome Sim.Ivar.t;
}

(* Server-side at-most-once state, kept per client cell. A retransmitted
   request whose call id is already present is answered from the cached
   reply (or silently suppressed while the original is still executing)
   instead of re-executed. *)
type rpc_reply_state =
  | Reply_in_progress (* original request is still executing *)
  | Reply_done of rpc_outcome (* completed: retransmits resend this *)

type rpc_session = {
  mutable rs_epoch : int; (* client incarnation the cache is valid for *)
  mutable rs_max_call : int; (* highest call id seen (prune watermark) *)
  rs_replies : (int, rpc_reply_state) Hashtbl.t; (* call id -> state *)
}

(* Per-file sequential-fault detector driving the adaptive read-ahead
   window: [ra_last] is the highest file page the last locate fetched,
   [ra_window] the number of pages the next sequential miss will ask for. *)
type ra_stream = { mutable ra_last : int; mutable ra_window : int }

(* A distributed-agreement vote (Section 4.3), owned by the accuser's
   agreement thread, whose exit hook removes it from [sys.agreements].
   [electorate] is set when the vote starts: [] while it is pending. *)
type agreement = {
  accuser : cell_id;
  suspect : cell_id;
  mutable electorate : cell_id list;
}

(* A double-barrier recovery round. A nested failure replaces it with a
   round over the enlarged dead set; the master's completion ends it. *)
type round = {
  dead : cell_id list;
  participants : cell_id list;
  barrier1 : Sim.Barrier.t;
  barrier2 : Sim.Barrier.t;
}

type cell = {
  cell_id : cell_id;
  cell_nodes : int list; (* node ids owned throughout execution *)
  boss_node : int; (* first node: hosts published kernel data *)
  mutable cstatus : cell_status;
  mutable mem_alive : bool;
      (* Cell_down but the nodes' memory still answers remote reads: the
         CXL pooled-memory failure mode (processors dead, memory alive) *)
  mutable live_set : cell_id list; (* cells this cell believes are up *)
  (* pfdat tables *)
  page_hash : pfdat Page_hash.t;
  page_index : pfdat;
      (* sentinel of the import index: the extended pfdats bound in
         page_hash, on a circular list kept by [Pfdat] *)
  frames : (int, pfdat) Hashtbl.t;
      (* by pfn: the in-use own and borrowed frames, and the imports *)
  pool : frame_pool;
  (* fs *)
  files : (string, file) Hashtbl.t; (* files homed on this cell, by path *)
  files_by_ino : (int, file) Hashtbl.t;
  mutable next_ino : int;
  mutable next_disk_block : int;
  (* kernel heap in simulated memory *)
  kmem : kmem;
  clock_addr : int; (* published clock word *)
  mutable clock_due : int64;
      (* when this cell's next clock interrupt fires; -1 before boot *)
  (* processes *)
  mutable processes : process list;
  mutable user_gate_open : bool;
  mutable gate_waiters : Sim.Engine.thread list;
  (* rpc *)
  mutable next_call_id : int;
  mutable incarnation : int;
      (* bumped on every reintegration; folded into call ids and checked
         against message epochs so pre-reboot traffic is discarded *)
  rpc_rng : Sim.Prng.t; (* deterministic backoff jitter *)
  pending_calls : (int, pending_call) Hashtbl.t;
  rpc_sessions : (cell_id, rpc_session) Hashtbl.t;
      (* per-client at-most-once reply cache (this cell as server) *)
  rpc_queue : (unit -> unit) Sim.Mailbox.t; (* queued-service requests *)
  release_queue : pfdat Sim.Mailbox.t;
      (* imports released by exiting processes, drained by a kernel thread *)
  park_list : pfdat;
      (* sentinel of the import cache: released read-only imports parked
         for RPC-free re-access, on a circular list in park order kept by
         [Pfdat] *)
  mutable nparked : int; (* bounded by Params.import_cache_pages *)
  readahead : (fid, ra_stream) Hashtbl.t;
      (* per-file sequential fault streams (remote files only) *)
  pending_releases : (logical_id, int) Hashtbl.t;
      (* lids with a release RPC in flight to their data home. A re-import
         of such a lid must wait for the release to land, or the stale
         release would retire the export record of the *new* binding at
         the home (lost invalidation channel). *)
  mutable flush_epoch : int;
      (* bumped by recovery's import flush. A fault thread already past
         the gate when recovery begins snapshots this before its locate
         RPC: a mismatch afterwards means the reply predates the homes'
         preemptive discard — its frame numbers and the export record it
         created are gone, so the fault must relocate, not bind. *)
  swap_table : (logical_id, int * Bytes.t) Hashtbl.t;
      (* anonymous pages swapped out to this cell's swap partition:
         lid -> (disk block within the swap area, contents) *)
  mutable swap_blocks_used : int;
  mutable swap_free_blocks : int list;
      (* swap blocks freed by swap-ins, reused before the bump allocator *)
  (* failure detection / recovery *)
  mutable false_alerts : (cell_id * int) list; (* accuser -> vote-downs *)
  mutable recovery_thread : Sim.Engine.thread option;
      (* cleared by that thread's exit hook; a nested-failure restart
         re-spawns only where there is none *)
  (* wax hints *)
  mutable alloc_preference : cell_id list;
  mutable clock_hand_targets : cell_id list; (* cells under memory pressure *)
  mutable swap_hint : int;
      (* frames the Wax coordinator suggests this cell push to swap; the
         cell's own Wax thread validates and acts on it (hints-only
         contract: the coordinator never swaps on another cell's behalf) *)
  salvaged_by_home : (cell_id, pfdat) Hashtbl.t;
      (* index of salvaged pages by their dead data home, so reintegration
         purges in O(salvaged from that home) instead of sweeping every
         page of every survivor; entries are validated against [frames]
         at purge time (a reclaimed frame may leave a stale entry) *)
  mutable rr_cpu : int; (* round-robin CPU assignment cursor *)
  wax_slot : int; (* published word Wax reads/writes *)
  (* threads owned by this kernel, killed on panic *)
  mutable kernel_threads : Sim.Engine.thread list;
  counters : Sim.Stats.registry;
  fault_in_cache_ns : Sim.Stats.summary;
  remote_fault_ns : Sim.Stats.summary;
}

(* The whole Hive system: machine + cells + global configuration. *)
type system = {
  machine : Flash.Machine.t;
  eng : Sim.Engine.t;
  mcfg : Flash.Config.t;
  params : Params.t;
  cells : cell array;
  node_owner : cell_id array;
      (* node -> owning cell, fixed at boot; O(1) [cell_of_node] instead
         of a scan over every cell's node list *)
  proc_table : (pid, process) Hashtbl.t;
  mutable next_pid : int;
  mutable agreements : agreement list; (* newest first *)
  mutable round : round option; (* [None] between rounds *)
  mutable recovery_round : int;
      (* the attempt: bumped by initiation and by nested-failure restarts *)
  mutable recovery_in_progress : bool;
      (* a copy of [recovery_in_progress sys] for readers that need a
         field, refreshed by [sync_in_progress] *)
  mutable recovery_events : (cell_id * int64) list;
      (* (cell, time it entered recovery) for detection-latency measurement *)
  mutable recovery_complete_at : int64;
  (* Split-brain oracle state: which cells currently hold recovery
     mastership, and every instant at which two held it concurrently.
     Latched continuously (at master_begin time, via the event bus), not
     recomputed post-quiesce, so a transient dual-master window can never
     escape the checker by standing down before the run ends. *)
  mutable masters_active : cell_id list;
  mutable master_overlaps : string list;
  mutable on_cell_death : (cell_id -> unit) option;
      (* panic/hardware-failure hook: lets an in-flight recovery round
         restart with an enlarged dead set when a participant dies *)
  mutable reintegrate_fn : (cell_id -> unit) option;
      (* installed by System at boot; the recovery master drives it after
         diagnostics pass to reboot and reintegrate repaired cells *)
  mutable wax_restart : (system -> unit) option;
  mutable wax_threads : Sim.Engine.thread list;
  mutable wax_incarnation : int;
  mutable on_hint : (cell -> suspect:cell_id -> reason:string -> unit) option;
      (* installed by the failure-detection module at boot *)
  sys_counters : Sim.Stats.registry;
  (* At-most-once audit trail, read by Invariants: how many times each
     non-idempotent op body actually ran, keyed by the server's identity
     (cell, incarnation) and the call id; plus any stale-epoch message a
     cell accepted (always a bug — recorded only when the epoch check is
     deliberately disabled for planted-bug demos). *)
  rpc_executions : (cell_id * int * int, string * int) Hashtbl.t;
  mutable rpc_stale_accepts : string list;
  (* observability *)
  events : Sim.Event.bus;
  rpc_client_ns : (string, Sim.Stats.histogram) Hashtbl.t;
      (* per-op whole-call latency seen by clients *)
  rpc_server_ns : (string, Sim.Stats.histogram) Hashtbl.t;
      (* per-op handler execution time on servers *)
  op_ns : (string, Sim.Stats.histogram) Hashtbl.t;
      (* user-visible end-to-end operation latency by op class (the server
         workload keys these as "class|phase", e.g. "server.read|before") *)
  mutable recovery_timeline : (string * int64) list;
      (* (phase, time) markers from the most recent recovery, oldest first *)
}

let cell_of_node (sys : system) node =
  if node < 0 || node >= Array.length sys.node_owner then
    invalid_arg "cell_of_node: node not owned by any cell";
  sys.cells.(sys.node_owner.(node))

let cell sys id = sys.cells.(id)

let cell_of_proc (sys : system) (p : process) = sys.cells.(p.proc_cell)

let cell_alive (c : cell) = c.cstatus = Cell_up

(* Start a kernel thread on [c]'s processors: [c] owns it, and [c]'s
   halt kills it. *)
let spawn_kernel (sys : system) (c : cell) ?on_exit ~name body =
  let thr =
    Sim.Engine.spawn sys.eng ~owner:c.cell_id ~hosted:true ?on_exit ~name body
  in
  c.kernel_threads <- thr :: c.kernel_threads;
  thr

(* Recovery is in progress while an agreement votes or a round is active;
   a pending agreement and a deferred reclaim do not count. *)
let recovery_in_progress (sys : system) =
  Option.is_some sys.round
  || List.exists (fun a -> a.electorate <> []) sys.agreements

(* Called after every change to [round], an electorate, or the set of
   agreements with one. *)
let sync_in_progress (sys : system) =
  sys.recovery_in_progress <- recovery_in_progress sys

(* Is [c] in the active round? From the spawn of its recovery thread
   until the thread leaves the round. *)
let in_recovery (sys : system) (c : cell) =
  match (sys.round, c.recovery_thread) with
  | Some r, Some _ -> List.mem c.cell_id r.participants
  | _ -> false

(* Does [accuser] own an agreement against [suspect]? *)
let suspects (sys : system) ~accuser ~suspect =
  List.exists
    (fun a -> a.accuser = accuser && a.suspect = suspect)
    sys.agreements

(* Count an event on a cell's, or the system's, declared counter. *)
let bump ?by (c : cell) id = Sim.Stats.bump ?by c.counters id

let sys_bump ?by (sys : system) id = Sim.Stats.bump ?by sys.sys_counters id

let hist_for (tbl : (string, Sim.Stats.histogram) Hashtbl.t) name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h = Sim.Stats.histogram () in
    Hashtbl.replace tbl name h;
    h

(* Record a recovery-phase marker: appended to the timeline (kept in order)
   and emitted on the event bus. *)
let note_phase (sys : system) ?cell ?args phase =
  let t = Sim.Engine.now sys.eng in
  sys.recovery_timeline <- sys.recovery_timeline @ [ (phase, t) ];
  Sim.Event.instant sys.events ?cell ?args ~cat:Sim.Event.Recovery phase

(* Event args naming the suspect of a failure hint or agreement round,
   built only when a sink is attached. *)
let suspect_args (sys : system) ~suspect ~reason =
  if Sim.Event.enabled sys.events then
    Some
      [ ("suspect", Sim.Event.Int suspect); ("reason", Sim.Event.Str reason) ]
  else None

(* Recovery-mastership latch: the split-brain oracle. [master_begin] is
   called the instant a cell assumes mastership of a recovery round; if
   any other cell still holds mastership the overlap is latched right
   here — the invariant checker later reports it even if one master has
   long since stood down. *)
let master_begin (sys : system) (cell_id : cell_id) =
  let t = Sim.Engine.now sys.eng in
  (* A master whose cell has since been killed never ran [master_end];
     its stale latch must not count as a concurrent live master. *)
  sys.masters_active <-
    List.filter (fun id -> cell_alive (cell sys id)) sys.masters_active;
  List.iter
    (fun other ->
      if other <> cell_id then
        sys.master_overlaps <-
          sys.master_overlaps
          @ [
              Printf.sprintf
                "cells %d and %d were concurrent recovery masters at t=%Ldns"
                other cell_id t;
            ])
    sys.masters_active;
  if not (List.mem cell_id sys.masters_active) then
    sys.masters_active <- sys.masters_active @ [ cell_id ];
  note_phase sys ~cell:cell_id
    (Printf.sprintf "recovery.master_begin.cell%d" cell_id)

let master_end (sys : system) (cell_id : cell_id) =
  if List.mem cell_id sys.masters_active then begin
    sys.masters_active <-
      List.filter (fun id -> id <> cell_id) sys.masters_active;
    note_phase sys ~cell:cell_id
      (Printf.sprintf "recovery.master_end.cell%d" cell_id)
  end
