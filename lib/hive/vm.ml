(* Virtual memory: address-space regions, page faults, logical-level
   sharing of file and anonymous pages, and the VM side of recovery
   (Table 5.1, Sections 5.2-5.6).

   There is no instruction-level execution in the simulation, so "the
   hardware" faults when a workload touches a virtual page with no entry in
   the process's mapping table; the fault path then follows the paper:
   check the local pfdat hash, and on a miss either service locally or send
   a locate RPC to the data home, which exports the page for the client to
   import. *)

module Count = struct
  let anon_careful_failures =
    Sim.Stats.declare ~name:"vm.anon_careful_failures" ~unit:"count"
      ~doc:"anonymous faults failed by a careful-reference defense"
  let cow_defended =
    Sim.Stats.declare ~name:"vm.cow_defended" ~unit:"count"
      ~doc:"copy-on-write lookups that caught a corrupt tree"
  let discarded_pages =
    Sim.Stats.declare ~name:"vm.discarded_pages" ~unit:"pages"
      ~doc:"pages discarded because a failed cell may have written them"
  let faults =
    Sim.Stats.declare ~name:"vm.faults" ~unit:"count" ~doc:"page faults"
  let refault_retries =
    Sim.Stats.declare ~name:"vm.refault_retries" ~unit:"count"
      ~doc:"faults retried after a recovery flush"
  let salvage_skipped =
    Sim.Stats.declare ~name:"vm.salvage_skipped" ~unit:"pages"
      ~doc:"imports from a dead home that failed the salvage filter"
  let salvaged_pages =
    Sim.Stats.declare ~name:"vm.salvaged_pages" ~unit:"pages"
      ~doc:"imports salvaged from a dead home's memory"
  let stale_locates =
    Sim.Stats.declare ~name:"vm.stale_locates" ~unit:"count"
      ~doc:"fault locates invalidated by a concurrent recovery flush"
end

type Types.payload +=
  | P_anon_locate of { node_id : int; page : int; writable : bool }
  | P_anon_page of { pfn : int }

let anon_locate_op = Rpc.Op.declare ~arg_bytes:32 "vm.anon_locate"

let mem (sys : Types.system) = Flash.Machine.memory sys.Types.machine

let cell_of (sys : Types.system) (p : Types.process) =
  sys.Types.cells.(p.Types.proc_cell)

let note_dependency (p : Types.process) cell_id =
  if
    cell_id <> p.Types.proc_cell
    && not (List.mem cell_id p.Types.uses_cells)
  then p.Types.uses_cells <- cell_id :: p.Types.uses_cells

(* ---------- Region setup ---------- *)

let next_start (p : Types.process) =
  List.fold_left
    (fun acc (r : Types.region) -> max acc (r.Types.start_page + r.Types.npages))
    16 p.Types.regions

let map_file (sys : Types.system) (p : Types.process) vnode ~opened_gen
    ~writable ~npages =
  let r =
    {
      Types.start_page = next_start p;
      npages;
      kind = Types.File_region (vnode, 0);
      reg_writable = writable;
      opened_gen;
    }
  in
  ignore sys;
  p.Types.regions <- r :: p.Types.regions;
  let fid = Types.vnode_fid vnode in
  note_dependency p fid.Types.home;
  r

let map_anon (sys : Types.system) (p : Types.process) (leaf : Types.cow_ref)
    ~npages =
  let r =
    {
      Types.start_page = next_start p;
      npages;
      kind = Types.Anon_region { cow_cell = leaf.Types.cow_cell;
                                 cow_addr = leaf.Types.cow_addr };
      reg_writable = true;
      opened_gen = 0;
    }
  in
  ignore sys;
  p.Types.regions <- r :: p.Types.regions;
  r

let region_of (p : Types.process) vpage =
  List.find_opt
    (fun (r : Types.region) ->
      vpage >= r.Types.start_page && vpage < r.Types.start_page + r.Types.npages)
    p.Types.regions

(* ---------- Anonymous page service ---------- *)

(* Materialize a fresh anonymous page recorded at the process's leaf. *)
let anon_create (sys : Types.system) (c : Types.cell) (leaf : Types.cow_ref)
    ~page =
  let pf = Page_alloc.alloc_frame sys c in
  Cow.record_write sys c leaf ~page;
  let node_id = Cow.node_id sys { leaf with Types.cow_cell = leaf.Types.cow_cell } in
  let lid =
    {
      Types.tag = Types.Anon_obj { cow_home = c.Types.cell_id; node_id };
      page;
    }
  in
  Pfdat.insert c lid pf;
  pf

(* Get the frame for an anon page recorded at node [r] (local or remote). *)
let rec anon_get (sys : Types.system) (c : Types.cell) (r : Types.cow_ref)
    ~page ~writable =
  if r.Types.cow_cell = c.Types.cell_id then begin
    let node_id = Cow.node_id sys r in
    let lid =
      { Types.tag = Types.Anon_obj { cow_home = c.Types.cell_id; node_id };
        page }
    in
    match Pfdat.lookup c lid with
    | Some pf -> Ok pf
    | None -> (
      (* Not in memory: it may have been swapped out. *)
      match Swap.swap_in sys c lid with
      | Some pf -> Ok pf
      | None -> Error Types.EFAULT (* recorded but discarded *))
  end
  else begin
    (* The cell owning the recording node is the data home for the page:
       RPC to set up the export/import binding. *)
    let owner = r.Types.cow_cell in
    let node_id =
      (* Read the node id carefully; a defended failure means the owner is
         corrupt or gone. *)
      match
        Careful_ref.protect sys c ~target:owner (fun ctx ->
            Careful_ref.check_tag ctx ~addr:r.Types.cow_addr
              ~expected:Cow.cow_tag;
            Int64.to_int
              (Careful_ref.read_field ctx ~addr:r.Types.cow_addr ~index:0))
      with
      | Ok id -> Some id
      | Error reason ->
        (* A defended careful-reference failure is a failure hint
           (Table 4.1), exactly like [Cow.Defended] in [fault]: report it
           so agreement can run on the owner, instead of silently
           returning EFAULT and leaving a corrupt cell unsuspected. *)
        Types.bump c Count.anon_careful_failures;
        (match sys.Types.on_hint with
        | Some f ->
          f c ~suspect:owner ~reason:(Careful_ref.reason_to_string reason)
        | None -> ());
        None
    in
    match node_id with
    | None -> Error Types.EFAULT
    | Some node_id -> (
      let epoch = c.Types.flush_epoch in
      match
        Rpc.call sys ~from:c ~target:owner ~op:anon_locate_op
          (P_anon_locate { node_id; page; writable })
      with
      | Ok (P_anon_page { pfn = _ }) when c.Types.flush_epoch <> epoch ->
        (* Recovery flushed this cell while the locate was in flight: the
           reply's frame may already be discarded at the owner. Wait out
           the round and relocate. *)
        Types.bump c Count.stale_locates;
        Gate.pass c;
        anon_get sys c r ~page ~writable
      | Ok (P_anon_page { pfn }) ->
        let lid =
          { Types.tag = Types.Anon_obj { cow_home = owner; node_id }; page }
        in
        Ok (Share.import sys c ~pfn ~data_home:owner ~lid ~gen:0 ~writable)
      | Ok _ -> Error Types.EFAULT
      | Error e -> Error e)
  end

(* ---------- The page fault path ---------- *)

let add_mapping (p : Types.process) ~vpage ~lid (pf : Types.pfdat) ~writable =
  (match Hashtbl.find_opt p.Types.mappings vpage with
  | Some old -> old.Types.map_pf.Types.refs <- max 0 (old.Types.map_pf.Types.refs - 1)
  | None -> ());
  pf.Types.refs <- pf.Types.refs + 1;
  Hashtbl.replace p.Types.mappings vpage
    { Types.map_lid = lid; map_pf = pf; map_writable = writable }

let fault (sys : Types.system) (p : Types.process) ~vpage ~write =
  let c = cell_of sys p in
  Gate.pass c;
  Types.bump c Count.faults;
  match region_of p vpage with
  | None -> Error Types.EFAULT
  | Some r when write && not r.Types.reg_writable -> Error Types.EFAULT
  | Some r -> (
    let t0 = Sim.Engine.time () in
    let finish lid pf ~remote =
      add_mapping p ~vpage ~lid pf ~writable:write;
      if write then pf.Types.dirty <- true;
      note_dependency p
        (Flash.Addr.node_of_pfn sys.Types.mcfg pf.Types.pfn
        |> fun node -> (Types.cell_of_node sys node).Types.cell_id);
      (match pf.Types.imported_from with
      | Some home -> note_dependency p home
      | None -> ());
      let dt = Int64.sub (Sim.Engine.time ()) t0 in
      if remote then Sim.Stats.add_ns c.Types.remote_fault_ns dt
      else Sim.Stats.add_ns c.Types.fault_in_cache_ns dt;
      Ok ()
    in
    match r.Types.kind with
    | Types.File_region (vnode, base) -> (
      let page = base + (vpage - r.Types.start_page) in
      let fid = Types.vnode_fid vnode in
      let lid = { Types.tag = Types.File_obj fid; page } in
      let is_remote_miss =
        (match vnode with
        | Types.Local_vnode _ -> false
        | Types.Shadow_vnode _ -> true)
        && Pfdat.lookup c lid = None
      in
      (* Client-side locking and VM path costs beyond the FS work
         (Table 5.2). *)
      if is_remote_miss then begin
        Sim.Engine.delay Params.fault_client_lock_ns;
        Sim.Engine.delay Params.fault_client_vm_ns
      end;
      match
        Fs.get_page sys c vnode ~page ~writable:write
          ~opened_gen:r.Types.opened_gen ~usage:`Fault
      with
      | Ok pf -> finish lid pf ~remote:is_remote_miss
      | Error e -> Error e)
    | Types.Anon_region cref -> (
      let page = vpage - r.Types.start_page in
      (* Search up the copy-on-write tree from the process leaf. *)
      match Cow.lookup sys c cref ~page with
      | Cow.Defended reason ->
        Types.bump c Count.cow_defended;
        (match sys.Types.on_hint with
        | Some f ->
          f c ~suspect:cref.Types.cow_cell
            ~reason:(Careful_ref.reason_to_string reason)
        | None -> ());
        Error Types.EFAULT
      | Cow.Not_present ->
        (* First touch: allocate at our leaf (zero-filled). *)
        Sim.Engine.delay Params.fault_local_hit_ns;
        let pf = anon_create sys c cref ~page in
        let node_id = Cow.node_id sys cref in
        let lid =
          { Types.tag = Types.Anon_obj { cow_home = c.Types.cell_id; node_id };
            page }
        in
        finish lid pf ~remote:false
      | Cow.Found owner_ref ->
        let owner_local = owner_ref.Types.cow_cell = c.Types.cell_id in
        if write && not (owner_local && owner_ref = cref) then begin
          (* Copy-on-write break: copy the ancestor's page into a fresh
             local frame recorded at our own leaf. *)
          Sim.Engine.delay Params.fault_local_hit_ns;
          match anon_get sys c owner_ref ~page ~writable:false with
          | Error e -> Error e
          | Ok src_pf ->
            let psize = Flash.Config.page_size in
            let data =
              Flash.Memory.read sys.Types.eng (mem sys)
                ~by:(Types.boss_proc c)
                (Flash.Addr.addr_of_pfn src_pf.Types.pfn)
                psize
            in
            let dst = anon_create sys c cref ~page in
            Flash.Memory.write sys.Types.eng (mem sys) ~by:(Types.boss_proc c)
              (Flash.Addr.addr_of_pfn dst.Types.pfn)
              data;
            (* Drop our import binding to the source page if we made one
               (a local source may live in a borrowed frame, which stays). *)
            (if src_pf.Types.imported_from <> None then
               Share.release sys c src_pf);
            let node_id = Cow.node_id sys cref in
            let lid =
              { Types.tag =
                  Types.Anon_obj { cow_home = c.Types.cell_id; node_id };
                page }
            in
            finish lid dst ~remote:false
        end
        else begin
          (if owner_local then Sim.Engine.delay Params.fault_local_hit_ns
           else begin
             Sim.Engine.delay Params.fault_client_lock_ns;
             Sim.Engine.delay Params.fault_client_vm_ns
           end);
          match anon_get sys c owner_ref ~page ~writable:write with
          | Error e -> Error e
          | Ok pf ->
            let node_id =
              match pf.Types.lid with
              | Some l -> (
                match l.Types.tag with
                | Types.Anon_obj a -> a.node_id
                | _ -> 0)
              | None -> 0
            in
            let lid =
              { Types.tag =
                  Types.Anon_obj
                    { cow_home = owner_ref.Types.cow_cell; node_id };
                page }
            in
            finish lid pf ~remote:(not owner_local)
        end))

(* Touch a virtual page: fast no-op when mapped, fault otherwise. *)
let touch (sys : Types.system) (p : Types.process) ~vpage ~write =
  match Hashtbl.find_opt p.Types.mappings vpage with
  | Some m when (not write) || m.Types.map_writable ->
    Sim.Engine.delay Flash.Config.l2_hit_ns;
    Ok ()
  | _ -> fault sys p ~vpage ~write

(* Read/write actual memory words through a virtual page, exercising the
   hardware firewall on the real frame. [word_target] touches the page
   and returns the cell whose boss processor issues the access, and the
   word's physical address. *)
let word_target (sys : Types.system) (p : Types.process) ~vpage ~offset
    ~write =
  match touch sys p ~vpage ~write with
  | Error e -> Error e
  | Ok () ->
    let m = Hashtbl.find p.Types.mappings vpage in
    Ok (cell_of sys p, Flash.Addr.addr_of_pfn m.Types.map_pf.Types.pfn + offset)

let write_word (sys : Types.system) (p : Types.process) ~vpage ~offset v =
  let rec go retries =
    match word_target sys p ~vpage ~offset ~write:true with
    | Error e -> Error e
    | Ok (c, addr) -> (
      match Flash.Memory.write_i64 sys.Types.eng (mem sys) ~by:(Types.boss_proc c) addr v with
      | () -> Ok ()
      | exception Flash.Memory.Bus_error { cause = Flash.Memory.Firewall_denied; _ } ->
        (* Permission revoked since mapping (e.g. post-recovery): refault.
           Bounded, because the refault can hand back the same frame
           without restoring write permission (a home that revoked the
           grant but still serves the binding): unbounded recursion here
           is a livelock inside a syscall. *)
        Hashtbl.remove p.Types.mappings vpage;
        Types.bump c Count.refault_retries;
        if retries >= Params.max_refault_retries then Error Types.EFAULT
        else go (retries + 1)
      | exception Flash.Memory.Bus_error _ -> Error Types.EFAULT)
  in
  go 0

let read_word (sys : Types.system) (p : Types.process) ~vpage ~offset =
  match word_target sys p ~vpage ~offset ~write:false with
  | Error e -> Error e
  | Ok (c, addr) -> (
    match Flash.Memory.read_i64 sys.Types.eng (mem sys) ~by:(Types.boss_proc c) addr with
    | v -> Ok v
    | exception Flash.Memory.Bus_error _ -> Error Types.EFAULT)

(* ---------- Teardown and recovery support ---------- *)

let drop_mappings (p : Types.process) =
  Hashtbl.iter
    (fun _ (m : Types.mapping) ->
      m.Types.map_pf.Types.refs <- max 0 (m.Types.map_pf.Types.refs - 1))
    p.Types.mappings;
  Hashtbl.reset p.Types.mappings

let unmap_all (sys : Types.system) (p : Types.process) =
  let c = cell_of sys p in
  drop_mappings p;
  (* Release idle imported pages eagerly on exit. Teardown may run outside
     a thread context, so hand the releases (which RPC the data home) to
     the cell's reaper thread. *)
  Pfdat.extended_in_table_order c (fun pf ->
      pf.Types.imported_from <> None
      && pf.Types.refs = 0
      && not pf.Types.cached (* parked bindings are already released *))
  |> List.iter (Sim.Mailbox.send sys.Types.eng c.Types.release_queue)

(* CXL-style memory salvage: when a failed cell's processors died but its
   memory banks still answer reads (Cpu_dead_mem_alive), a survivor may
   copy clean imported file pages into local frames instead of discarding
   the bindings and re-reading from disk after reintegration. Only pages
   that provably cannot have been corrupted qualify: the home's pfdat
   must still bind the same logical page at the same frame, clean on both
   sides, with write granted to nobody (so the firewall never let any
   processor scribble on it — the wild-write filter), and the home file's
   generation must not have advanced past the import's. The copy is
   served read-only and purged when the home reintegrates. *)
let try_salvage (sys : Types.system) (c : Types.cell) (pf : Types.pfdat)
    ~home =
  let par = sys.Types.params in
  let hc = sys.Types.cells.(home) in
  if not (par.Params.enable_salvage && hc.Types.mem_alive) then None
  else
    match pf.Types.lid with
    | Some ({ Types.tag = Types.File_obj fid; page = _ } as lid)
      when fid.Types.home = home
           && (not pf.Types.dirty)
           && pf.Types.borrowed_from = None
           && pf.Types.loaned_to = None -> (
      match Pfdat.lookup hc lid with
      | Some hpf
        when hpf.Types.pfn = pf.Types.pfn
             && (not hpf.Types.dirty)
             && hpf.Types.write_granted_to = []
             && Flash.Memory.node_accessible (mem sys)
                  (Flash.Addr.node_of_pfn sys.Types.mcfg hpf.Types.pfn)
             && (match
                   Hashtbl.find_opt hc.Types.files_by_ino fid.Types.ino
                 with
                | Some f -> f.Types.generation <= pf.Types.import_gen
                | None -> false) -> (
        (* Take a strictly local free frame; under memory pressure the
           salvage is skipped rather than evicting anything mid-recovery. *)
        let local_free =
          List.find_opt
            (fun pfn ->
              List.mem
                (Flash.Addr.node_of_pfn sys.Types.mcfg pfn)
                c.Types.cell_nodes)
            c.Types.free_frames
        in
        match local_free with
        | None ->
          Types.bump c Count.salvage_skipped;
          None
        | Some pfn ->
          Types.remove_free c pfn;
          Sim.Engine.delay Params.salvage_copy_ns;
          let data =
            Flash.Memory.peek (mem sys)
              (Flash.Addr.addr_of_pfn hpf.Types.pfn)
              Flash.Config.page_size
          in
          let npf = Pfdat.of_frame c pfn in
          Flash.Memory.poke (mem sys) (Flash.Addr.addr_of_pfn pfn) data;
          npf.Types.import_gen <- pf.Types.import_gen;
          Some (lid, npf))
      | _ ->
        Types.bump c Count.salvage_skipped;
        None)
    | _ -> None

(* TLB flush + removal of all remote mappings and import bindings: the
   pre-barrier-1 step of recovery. A future access to any remote page will
   fault and send an RPC to the page's owner, where it can be checked.
   [dead] names the confirmed-dead cells of the round: clean imports from
   a dead home whose memory outlived its processors are salvaged into
   local frames (see [try_salvage]) instead of discarded. *)
let flush_remote_bindings ?(dead = []) (sys : Types.system) (c : Types.cell) =
  (* Invalidate locate replies still in flight: any fault thread that
     snapshotted the old epoch before its RPC must relocate, not bind a
     pre-recovery frame (see [Types.flush_epoch]). *)
  c.Types.flush_epoch <- c.Types.flush_epoch + 1;
  List.iter
    (fun (p : Types.process) ->
      let doomed = ref [] in
      Hashtbl.iter
        (fun vpage (m : Types.mapping) ->
          let node = Flash.Addr.node_of_pfn sys.Types.mcfg m.Types.map_pf.Types.pfn in
          let remote_frame = not (List.mem node c.Types.cell_nodes) in
          if remote_frame || m.Types.map_pf.Types.imported_from <> None then
            doomed := vpage :: !doomed)
        p.Types.mappings;
      List.iter
        (fun vpage ->
          (match Hashtbl.find_opt p.Types.mappings vpage with
          | Some m ->
            m.Types.map_pf.Types.refs <- max 0 (m.Types.map_pf.Types.refs - 1)
          | None -> ());
          Hashtbl.remove p.Types.mappings vpage)
        !doomed)
    c.Types.processes;
  (* Drop every import binding; re-faults go back through the data home.
     Imports from a dead-but-memory-alive home are copied out first when
     they pass the salvage filter. *)
  let imports = ref [] in
  Pfdat.iter_pages c (fun pf ->
      if pf.Types.extended && pf.Types.imported_from <> None then
        imports := pf :: !imports);
  List.iter
    (fun (pf : Types.pfdat) ->
      let salvaged =
        match pf.Types.imported_from with
        | Some home when List.mem home dead -> try_salvage sys c pf ~home
        | _ -> None
      in
      let home = pf.Types.imported_from in
      Share.drop_import c pf;
      match (salvaged, home) with
      | Some (lid, npf), Some h ->
        npf.Types.salvaged_from <- Some h;
        Pfdat.insert c lid npf;
        (* Index by home so reintegration can purge without a full sweep. *)
        Hashtbl.add c.Types.salvaged_by_home h npf;
        Types.bump c Count.salvaged_pages
      | _ -> ())
    !imports;
  (* No parked binding may survive recovery: a data home may be dead or
     about to bump generations, and the post-recovery world re-locates
     everything from scratch. drop_import already unparked each binding;
     this also resets the cache's FIFO and the read-ahead detectors. *)
  Types.reset_import_cache c;
  Hashtbl.reset c.Types.readahead

(* Post-barrier-1 VM cleanup: revoke grants to dead cells, preemptively
   discard every local page writable by a failed cell, clear export
   records, reclaim loaned frames. Returns the number of discarded pages. *)
let preemptive_discard (sys : Types.system) (c : Types.cell) ~dead =
  let fwall = Flash.Machine.firewall sys.Types.machine in
  let discarded = ref 0 in
  (* Find local frames writable by any dead cell's processors: one pass
     over this cell's own nodes' permission vectors with a combined mask
     of all dead processors, instead of one machine-wide scan per dead
     processor — the scan cost depends on the survivor's own memory size,
     not on (dead processors x machine size). *)
  let dead_mask =
    Flash.Firewall.proc_mask
      (List.concat_map (fun d -> sys.Types.cells.(d).Types.cell_nodes) dead)
  in
  let victim_pfns =
    List.concat_map
      (fun node ->
        Flash.Firewall.pages_writable_by_mask fwall ~node ~mask:dead_mask)
      c.Types.cell_nodes
  in
  List.iter
    (fun pfn ->
      Sim.Engine.delay Params.recovery_scan_page_ns;
      (* Revoke all remote permission on this page. *)
      let node = Flash.Addr.node_of_pfn sys.Types.mcfg pfn in
      Flash.Firewall.revoke_all_remote fwall ~by:node ~pfn;
      match Hashtbl.find_opt c.Types.frames pfn with
      | None -> ()
      | Some pf ->
        incr discarded;
        Types.bump c Count.discarded_pages;
        (* Notify the file system if a dirty file page is being lost. *)
        (match pf.Types.lid with
        | Some { Types.tag = Types.File_obj fid; page } -> (
          match Hashtbl.find_opt c.Types.files_by_ino fid.Types.ino with
          | Some f -> Fs.note_discard sys c f ~page ~dirty:pf.Types.dirty
          | None -> ())
        | _ -> ());
        pf.Types.exported_to <- [];
        pf.Types.write_granted_to <- [];
        Page_alloc.free_frame sys c pf)
    victim_pfns;
  (* Clear export records (clients dropped their imports pre-barrier). *)
  Pfdat.iter_pages c (fun pf ->
      pf.Types.exported_to <- [];
      List.iter
        (fun client ->
          if List.mem client dead then
            Wild_write.revoke_client sys c pf ~client)
        pf.Types.write_granted_to);
  (* Reclaim frames loaned to dead cells. *)
  let reclaimed =
    List.filter
      (fun pfn ->
        match Hashtbl.find_opt c.Types.frames pfn with
        | Some pf -> (
          match pf.Types.loaned_to with
          | Some borrower when List.mem borrower dead ->
            pf.Types.loaned_to <- None;
            Pfdat.remove c pf;
            true
          | _ -> false)
        | None -> false)
      c.Types.reserved_loans
  in
  List.iter
    (fun pfn ->
      c.Types.reserved_loans <-
        List.filter (fun q -> q <> pfn) c.Types.reserved_loans;
      Types.push_free c pfn)
    reclaimed;
  (* Drop borrowed frames whose memory home died. *)
  let dead_borrows = ref [] in
  Hashtbl.iter
    (fun _ pf ->
      match pf.Types.borrowed_from with
      | Some home when List.mem home dead -> dead_borrows := pf :: !dead_borrows
      | _ -> ())
    c.Types.frames;
  List.iter
    (fun pf ->
      Types.remove_free c pf.Types.pfn;
      Pfdat.free_extended c pf)
    !dead_borrows;
  !discarded

let () =
  Rpc.serve anon_locate_op (fun sys cell ~src arg ->
      match arg with
      | P_anon_locate { node_id; page; writable } -> (
        let lid =
          { Types.tag =
              Types.Anon_obj { cow_home = cell.Types.cell_id; node_id };
            page }
        in
        match Pfdat.lookup cell lid with
        | Some pf ->
          (* Export first: the record pins the pfdat, so the service
             delay below cannot race a reclaim sweep that would drop
             the still-unreferenced frame. *)
          Share.export sys cell pf ~client:src ~writable;
          Sim.Engine.delay Params.fault_home_vm_ns;
          Types.Immediate (Ok (P_anon_page { pfn = pf.Types.pfn }))
        | None -> Types.Immediate (Error Types.ENOENT))
      | _ -> Types.Immediate (Error Types.EFAULT))
