(* Logical-level memory sharing primitives (Table 5.1 of the paper).

   export: the data home records that a client cell is accessing one of
   its data pages (pinning it and noting the dependency for recovery), and
   grants firewall write permission to the client's processors if the
   client requested a writable mapping.

   import: the client allocates an extended pfdat bound to the remote
   page and inserts it into its pfdat hash table, after which most of the
   kernel operates on the page as if it were local.

   release: the client frees the extended pfdat and tells the data home,
   which unpins the page (keeping it cached on its own free list for fast
   re-access).

   On top of the three primitives this module implements the import
   cache and batched protocol: a released read-only file import is
   *parked* in a bounded per-cell cache instead of being freed, so the
   next access rebinds it without any RPC. The data home keeps its export
   record for a parked binding — that record is the channel through which
   the binding is invalidated when another cell later imports the page
   writable (share.invalidate callback). Parked bindings are also flushed
   on file generation bump (checked against the binding's generation at
   re-access)
   and dropped wholesale when the data home dies (recovery flush /
   preemptive discard). Bulk release paths hand their doomed bindings to
   [release_many], which coalesces them into one vectored
   share.release_batch RPC per data home. *)

module Count = struct
  let release_errors =
    Sim.Stats.declare ~name:"fs.release_errors" ~unit:"count"
      ~doc:"bulk import releases that lost a batch RPC"
  let cache_evictions =
    Sim.Stats.declare ~name:"share.cache_evictions" ~unit:"pages"
      ~doc:"parked imports evicted from the import cache"
  let cache_hits =
    Sim.Stats.declare ~name:"share.cache_hits" ~unit:"pages"
      ~doc:"imports rebound from the import cache without an RPC"
  let cache_insertions =
    Sim.Stats.declare ~name:"share.cache_insertions" ~unit:"pages"
      ~doc:"released imports parked in the import cache"
  let cache_invalidations =
    Sim.Stats.declare ~name:"share.cache_invalidations" ~unit:"pages"
      ~doc:"parked imports dropped by a home's invalidation"
  let exports =
    Sim.Stats.declare ~name:"share.exports" ~unit:"pages"
      ~doc:"pages exported by a data home"
  let imports =
    Sim.Stats.declare ~name:"share.imports" ~unit:"pages"
      ~doc:"remote pages bound into the local pfdat table"
  let invalidates =
    Sim.Stats.declare ~name:"share.invalidates" ~unit:"calls"
      ~doc:"invalidation callbacks sent to clients"
  let reimports =
    Sim.Stats.declare ~name:"share.reimports" ~unit:"pages"
      ~doc:"own loaned frames imported back"
  let release_import_stalls =
    Sim.Stats.declare ~name:"share.release_import_stalls" ~unit:"count"
      ~doc:"imports that waited for a release in flight"
  let release_lost =
    Sim.Stats.declare ~name:"share.release_lost" ~unit:"pages"
      ~doc:"releases whose RPC was lost"
  let release_races =
    Sim.Stats.declare ~name:"share.release_races" ~unit:"count"
      ~doc:"releases of a binding that was already gone"
  let releases =
    Sim.Stats.declare ~name:"share.releases" ~unit:"pages"
      ~doc:"imports released to their data home"
end

type Types.payload +=
  | P_release of { lid : Types.logical_id }
  | P_release_batch of { lids : Types.logical_id list }
  | P_invalidate of { lids : Types.logical_id list }
  | P_invalidate_ack of { kept : Types.logical_id list }

let release_op = Rpc.Op.declare "share.release"
let release_batch_op = Rpc.Op.declare ~reply_bytes:16 "share.release_batch"

(* Dropping a parked binding twice is harmless, so replays may skip the
   server reply cache. *)
let invalidate_op = Rpc.Op.declare ~idempotent:true "share.invalidate"

let page_event sys (c : Types.cell) name (pf : Types.pfdat) ~peer =
  if Sim.Event.enabled sys.Types.events then
    Sim.Event.instant sys.Types.events ~cell:c.Types.cell_id
      ~args:
        [ ("pfn", Sim.Event.Int pf.Types.pfn); ("peer", Sim.Event.Int peer) ]
      ~cat:Sim.Event.Page name

(* Data-home side: a client released its binding. Write permission was
   granted "as long as any process on that cell has the page mapped"
   (Section 4.2), so the release also revokes any firewall grant. *)
let unexport (sys : Types.system) (home : Types.cell) ~client ~lid =
  match Pfdat.lookup home lid with
  | Some pf ->
    pf.Types.exported_to <-
      List.filter (fun c -> c <> client) pf.Types.exported_to;
    Wild_write.revoke_client sys home pf ~client
  | None -> ()

(* Does granting [client] a writable export require invalidating other
   cells' (possibly parked) bindings first? Used by locate handlers to
   decide whether they can answer at interrupt level: an invalidation is
   an RPC, so it forces the queued path. *)
let needs_invalidate (pf : Types.pfdat) ~client =
  List.exists (fun c -> c <> client) pf.Types.exported_to

(* Data-home side: tell each client holding an export record for [lids]
   to drop any parked binding. A client keeps bindings that are still
   actively mapped (the hardware keeps those coherent); for the rest the
   export record and any firewall grant are retired here. An unreachable
   client keeps its export record — recovery will reconcile if it is
   actually dead, and a parked binding on a live-but-degraded client
   fails the generation/invalidation checks at re-access time. *)
let invalidate_clients (sys : Types.system) (home : Types.cell) ~clients
    ~lids =
  List.iter
    (fun client ->
      if
        client <> home.Types.cell_id
        && List.mem client home.Types.live_set
      then begin
        Types.bump home Count.invalidates;
        match
          Rpc.call sys ~target:client ~op:invalidate_op
            ~arg_bytes:(32 + (24 * List.length lids))
            (P_invalidate { lids })
        with
        | Ok (P_invalidate_ack { kept }) ->
          List.iter
            (fun lid ->
              if not (List.mem lid kept) then
                unexport sys home ~client ~lid)
            lids
        | Ok _ | Error _ -> ()
      end)
    clients

(* Data-home side: record a client's access to a cached page. A writable
   export first invalidates every other client's parked binding — they
   were imported under a promise the page would not change under them. *)
let export (sys : Types.system) (home : Types.cell) (pf : Types.pfdat)
    ~client ~writable =
  (* Record the export before any blocking work: the record is what pins
     the pfdat against the clock hand's reclaim. A locate that paged this
     frame in moments ago would otherwise lose it to a sweep during the
     invalidation RPCs or the bookkeeping delay below, and the reply
     would ship a pfn already back on the free list. *)
  if not (List.exists (fun c -> c = client) pf.Types.exported_to) then
    pf.Types.exported_to <- client :: pf.Types.exported_to;
  (if writable && needs_invalidate pf ~client then
     (* Only file pages are ever parked (see [cacheable]), so anon
        exports never need the callback. *)
     match pf.Types.lid with
     | Some ({ Types.tag = Types.File_obj _; _ } as lid) ->
       invalidate_clients sys home
         ~clients:(List.filter (fun c -> c <> client) pf.Types.exported_to)
         ~lids:[ lid ]
     | Some _ | None -> ());
  Sim.Engine.delay Params.fault_export_ns;
  Types.bump home Count.exports;
  page_event sys home "page.export" pf ~peer:client;
  if writable then Wild_write.grant_for_export sys home pf ~client

(* Client-side release/re-import ordering. A release frees the local
   binding *before* its RPC reaches the data home, so another process on
   the same cell could fault the lid back in during that window; the
   stale release would then retire the export record belonging to the
   new binding, silently severing the home's invalidation channel. Each
   in-flight release registers its lid here; [import] stalls on the lid
   until the release lands (either way — a failed release is counted and
   hinted separately). *)
let mark_pending (client : Types.cell) (lid : Types.logical_id) =
  let n =
    Option.value ~default:0
      (Hashtbl.find_opt client.Types.pending_releases lid)
  in
  Hashtbl.replace client.Types.pending_releases lid (n + 1)

let clear_pending (client : Types.cell) (lid : Types.logical_id) =
  match Hashtbl.find_opt client.Types.pending_releases lid with
  | Some n when n > 1 ->
    Hashtbl.replace client.Types.pending_releases lid (n - 1)
  | Some _ -> Hashtbl.remove client.Types.pending_releases lid
  | None -> ()

let await_no_pending (client : Types.cell) (lid : Types.logical_id) =
  while Hashtbl.mem client.Types.pending_releases lid do
    Types.bump client Count.release_import_stalls;
    Sim.Engine.delay Params.fault_import_ns
  done

(* Client-side mirror of the home's grant bookkeeping. Kept here (rather
   than ad hoc in callers) so every import path — file fault, syscall
   batch, anon/spanning region — records a writable binding the same way:
   the refault path and the release path both read it. *)
let note_writable (pf : Types.pfdat) ~writable =
  if writable then begin
    (match pf.Types.role with
    | Types.Import r -> r.writable <- true
    | Types.Home | Types.Salvaged _ | Types.Dropped -> ());
    pf.Types.dirty <- true
  end

(* Client side: pull a parked binding back into active use. *)
let cache_hit (client : Types.cell) (pf : Types.pfdat) =
  if Pfdat.parked pf then begin
    Pfdat.unpark client pf;
    Types.bump client Count.cache_hits
  end

(* Client side: bind a remote page into the local pfdat table. A page
   the data home placed in a frame this cell loaned it (the CC-NUMA case
   of Section 5.5) is an ordinary import: the loan is the frame pool's
   state, not the pfdat's. *)
let import (sys : Types.system) (client : Types.cell) ~pfn ~data_home ~lid
    ~gen ~writable =
  await_no_pending client lid;
  Sim.Engine.delay Params.fault_import_ns;
  Types.bump client Count.imports;
  match Pfdat.lookup client lid with
  | Some pf ->
    (* Raced with another local importer, or rebinding a parked page. *)
    cache_hit client pf;
    note_writable pf ~writable;
    pf
  | None ->
    if Sim.Event.enabled sys.Types.events then
      Sim.Event.instant sys.Types.events ~cell:client.Types.cell_id
        ~args:[ ("pfn", Sim.Event.Int pfn); ("peer", Sim.Event.Int data_home) ]
        ~cat:Sim.Event.Page "page.import";
    (if Page_alloc.own client pfn then
       match Page_alloc.state client pfn with
       | Types.Loaned _ -> Types.bump client Count.reimports
       | Types.Free | Types.In_use | Types.Not_held -> ());
    let pf = Pfdat.make ~pfn in
    pf.Types.role <- Types.Import { home = data_home; gen; writable = false };
    Hashtbl.replace client.Types.frames pfn pf;
    note_writable pf ~writable;
    Pfdat.insert client lid pf;
    pf

(* A lost release means the data home keeps the export record (and any
   firewall write grant) forever — a real leak, not a transient. Count
   it and report a failure hint so membership can investigate the home. *)
let release_failed (sys : Types.system) (client : Types.cell) ~home =
  Types.bump client Count.release_lost;
  Rpc.report_hint sys client home
    "share.release lost: export record may be leaked"

(* Drop the binding and notify the data home now, bypassing the cache.
   Returns false if the release RPC was lost. *)
let release_now (sys : Types.system) (client : Types.cell)
    (pf : Types.pfdat) ~home ~lid =
  Pfdat.free_extended client pf;
  Types.bump client Count.releases;
  page_event sys client "page.release" pf ~peer:home;
  if List.mem home client.Types.live_set then begin
    mark_pending client lid;
    Fun.protect
      ~finally:(fun () -> clear_pending client lid)
      (fun () ->
        match Rpc.call sys ~target:home ~op:release_op (P_release { lid }) with
        | Ok _ -> true
        | Error _ ->
          release_failed sys client ~home;
          false)
  end
  else true

(* Only idle read-only file imports from a live home are parked: anything
   writable must retire its firewall grant, and anon pages are freed on
   their last unmap. *)
let cacheable (sys : Types.system) (client : Types.cell) (pf : Types.pfdat)
    ~home ~writable ~(lid : Types.logical_id) =
  sys.Types.params.Params.enable_import_cache
  && pf.Types.refs = 0
  && (not writable)
  && (match lid.Types.tag with
     | Types.File_obj _ -> true
     | Types.Anon_obj _ -> false)
  && List.mem home client.Types.live_set

(* Park a released binding, evicting the least recently parked one past
   capacity. An evicted binding takes the legacy path: free + release
   RPC. *)
let park (sys : Types.system) (client : Types.cell) (pf : Types.pfdat) =
  Pfdat.park client pf;
  Types.bump client Count.cache_insertions;
  if client.Types.nparked > Params.import_cache_pages then
    Option.iter
      (fun (q : Types.pfdat) ->
        Pfdat.unpark client q;
        Types.bump client Count.cache_evictions;
        match (q.Types.role, q.Types.lid) with
        | Types.Import { home; _ }, Some lid ->
          ignore (release_now sys client q ~home ~lid)
        | _ -> Pfdat.free_extended client q)
      (Pfdat.oldest_parked client)

(* Client side: drop an imported page binding. Parks it when cacheable;
   otherwise frees it and notifies the data home. Never raises — a lost
   release is counted and hinted in [release_now]. *)
let release (sys : Types.system) (client : Types.cell) (pf : Types.pfdat) =
  if not (Pfdat.parked pf) then
    match (pf.Types.role, pf.Types.lid) with
    | Types.Import { home; writable; _ }, Some lid ->
      if cacheable sys client pf ~home ~writable ~lid then park sys client pf
      else ignore (release_now sys client pf ~home ~lid)
    | _ ->
      (* The binding may already have been dropped (e.g. by recovery's
         flush while this thread was mid-fault): releasing is idempotent. *)
      Types.bump client Count.release_races;
      if Pfdat.extended client pf then Pfdat.free_extended client pf

(* Client side: release a batch of bindings, coalescing the home
   notifications into one vectored release_batch RPC per data home.
   Cacheable bindings are parked; dead homes take the per-page path.
   Raises [Syscall_error] at the end if any batch RPC was lost (after
   counting and hinting each lost lid), so bulk callers can surface the
   error without losing the rest of the batch. *)
let release_many (sys : Types.system) (client : Types.cell)
    (pfs : Types.pfdat list) =
  let failed = ref None in
  let batched = ref [] in
  List.iter
    (fun (pf : Types.pfdat) ->
      if not (Pfdat.parked pf) then
        match (pf.Types.role, pf.Types.lid) with
        | Types.Import { home; writable; _ }, Some lid ->
          if cacheable sys client pf ~home ~writable ~lid then
            park sys client pf
          else if
            (not sys.Types.params.Params.enable_import_cache)
            || not (List.mem home client.Types.live_set)
          then begin
            if not (release_now sys client pf ~home ~lid) then
              failed := Some Types.EHOSTDOWN
          end
          else begin
            Pfdat.free_extended client pf;
            Types.bump client Count.releases;
            page_event sys client "page.release" pf ~peer:home;
            mark_pending client lid;
            batched := (home, lid) :: !batched
          end
        | _ ->
          Types.bump client Count.release_races;
          if Pfdat.extended client pf then Pfdat.free_extended client pf)
    pfs;
  let homes = List.sort_uniq compare (List.map fst !batched) in
  Fun.protect
    ~finally:(fun () ->
      (* Unblock stalled re-importers even if this thread is killed
         mid-batch (recovery, signals): every marked lid is cleared
         exactly once. *)
      List.iter (fun (_, lid) -> clear_pending client lid) !batched)
    (fun () ->
      List.iter
        (fun home ->
          let lids =
            List.filter_map
              (fun (h, lid) -> if h = home then Some lid else None)
              !batched
          in
          match
            Rpc.call sys ~target:home ~op:release_batch_op
              ~arg_bytes:(32 + (24 * List.length lids))
              (P_release_batch { lids })
          with
          | Ok _ -> ()
          | Error e ->
            List.iter (fun _ -> release_failed sys client ~home) lids;
            failed := Some e)
        homes);
  match !failed with Some e -> raise (Types.Syscall_error e) | None -> ()

(* [release_many] for the bulk callers (close, the exit reaper): a lost
   batch is counted per page inside, and once more here. *)
let release_all (sys : Types.system) (client : Types.cell) pfs =
  try release_many sys client pfs
  with Types.Syscall_error _ -> Types.bump client Count.release_errors

let () =
  Rpc.serve release_op (fun sys cell ~src arg ->
      match arg with
      | P_release { lid } ->
        unexport sys cell ~client:src ~lid;
        Types.Immediate (Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))

(* Queued: unexport may RPC the memory home of a borrowed frame to
   retire its firewall grant, which an interrupt handler cannot do. *)
let () =
  Rpc.serve release_batch_op (fun sys cell ~src arg ->
      match arg with
      | P_release_batch { lids } ->
        Types.Queued
          (fun () ->
            List.iter (fun lid -> unexport sys cell ~client:src ~lid) lids;
            Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))

(* Immediate: only touches the local import cache, never blocks. *)
let () =
  Rpc.serve invalidate_op (fun _sys cell ~src:_ arg ->
      match arg with
      | P_invalidate { lids } ->
        let kept = ref [] in
        List.iter
          (fun lid ->
            match Pfdat.lookup cell lid with
            | Some pf when Pfdat.parked pf ->
              Types.bump cell Count.cache_invalidations;
              Pfdat.free_extended cell pf
            | Some _ ->
              (* Still actively mapped here: the hardware keeps the
                 mapping coherent, so the export record must stay. *)
              kept := lid :: !kept
            | None -> ())
          lids;
        Types.Immediate (Ok (P_invalidate_ack { kept = !kept }))
      | _ -> Types.Immediate (Error Types.EFAULT))
