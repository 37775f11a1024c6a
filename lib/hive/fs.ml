(* The file system: a vnode layer with a unified, cross-cell page cache.

   Every file has a *data home* cell (deterministic from its path) that
   owns its backing store and page cache. Processes on other cells open
   the file through a shadow vnode and bind its pages into their own pfdat
   tables with export/import (Section 5.2): a fault or read that misses
   locally sends an RPC to the data home, which loads the page from disk
   if needed, exports it, and returns the frame address. Faults that hit
   in the data home's page cache are serviced entirely at interrupt level;
   only those requiring disk I/O go to the queued server pool.

   Preemptive discard support: when a dirty page is discarded after a cell
   failure, the file's generation number is bumped. Descriptors (and
   mapped regions) opened before the failure carry the old generation and
   get EIO; files opened afterwards read whatever is stable on disk
   (Section 4.2, "preemptive discard"). *)

module Count = struct
  let enospc =
    Sim.Stats.declare ~name:"fs.enospc" ~unit:"count"
      ~doc:"file growth refused because it would reach the swap partition"
  let generation_bumps =
    Sim.Stats.declare ~name:"fs.generation_bumps" ~unit:"count"
      ~doc:"file generations bumped by a discarded dirty page"
  let page_ins =
    Sim.Stats.declare ~name:"fs.page_ins" ~unit:"pages"
      ~doc:"file pages read from disk into the data home's memory"
  let readahead_pages =
    Sim.Stats.declare ~name:"fs.readahead_pages" ~unit:"pages"
      ~doc:"pages fetched ahead of a sequential remote fault"
  let reads =
    Sim.Stats.declare ~name:"fs.reads" ~unit:"calls" ~doc:"file reads"
  let remote_locates =
    Sim.Stats.declare ~name:"fs.remote_locates" ~unit:"calls"
      ~doc:"locate RPCs sent to a remote data home"
  let stale_locates =
    Sim.Stats.declare ~name:"fs.stale_locates" ~unit:"count"
      ~doc:"locate replies invalidated by a concurrent recovery flush"
  let writebacks =
    Sim.Stats.declare ~name:"fs.writebacks" ~unit:"pages"
      ~doc:"dirty file pages written back to disk"
  let writes =
    Sim.Stats.declare ~name:"fs.writes" ~unit:"calls" ~doc:"file writes"
end

type Types.payload +=
  | P_lookup of { path : string }
  | P_attrs of { ino : int; size : int; generation : int }
  | P_locate of {
      ino : int;
      page : int;
      npages : int;
      writable : bool;
      gen : int; (* generation the client's descriptor was opened under *)
    }
  | P_located of {
      pages : (int * int) list; (* file page -> pfn *)
      gen : int; (* generation the pages were exported under *)
    }
  | P_create of { path : string; content : Bytes.t }
  | P_created of { ino : int; gen : int }
  | P_unlink of { path : string }
  | P_dirty of { ino : int; page : int }
  | P_setsize of { ino : int; size : int }

(* Pure read of the home cell's name table: replays are harmless. *)
let lookup_op = Rpc.Op.declare ~idempotent:true "fs.lookup"

let locate_op = Rpc.Op.declare ~reply_bytes:512 "fs.locate"

(* arg_bytes overridden per call: the payload carries the file content. *)
let create_op = Rpc.Op.declare "fs.create"

let setsize_op = Rpc.Op.declare ~arg_bytes:32 "fs.set_size"

(* Not idempotent: a replayed unlink could remove a file re-created since. *)
let unlink_op = Rpc.Op.declare "fs.unlink"

(* Batch size for locate RPCs issued by the sequential read/write paths
   (read-ahead clustering); faults use the adaptive per-file window in
   [cell.readahead], capped by Params.fault_readahead_max. *)
let locate_batch = 8

(* Deterministic path placement: /tmp lives on cell 0 (the paper's pmake
   setup has one cell serving the compiler temporary directory); other
   paths hash over the cells. *)
let home_of_path (sys : Types.system) path =
  let n = Array.length sys.Types.cells in
  let has_prefix p =
    String.length path >= String.length p
    && String.sub path 0 (String.length p) = p
  in
  (* The root file system (binaries, headers, sources) and /tmp live on
     cell 0, which acts as the file server -- the paper's pmake setup, where
     the cell serving the compiler temporary directory peaked at 42
     remotely-writable pages. Other trees hash across the cells. *)
  if List.exists has_prefix [ "/tmp"; "/bin"; "/usr"; "/src"; "/etc" ] then 0
  else Hashtbl.hash path mod n

(* ---------- Data-home-side operations ---------- *)

let find_local (c : Types.cell) path = Hashtbl.find_opt c.Types.files path

let find_by_ino (c : Types.cell) ino =
  Hashtbl.find_opt c.Types.files_by_ino ino

let create_local (sys : Types.system) (home : Types.cell) ~path ~content =
  match find_local home path with
  | Some f ->
    (* Truncate and rewrite: stale cached pages must leave the page hash,
       or re-creation would serve old frames. Remote clients may hold
       parked bindings to those frames — invalidate them first, while the
       export records are still in place. *)
    let by_client = Hashtbl.create 4 in
    Hashtbl.iter
      (fun pg (pf : Types.pfdat) ->
        let lid = { Types.tag = Types.File_obj f.Types.fid; page = pg } in
        List.iter
          (fun cl ->
            let prev =
              match Hashtbl.find_opt by_client cl with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace by_client cl (lid :: prev))
          pf.Types.exported_to)
      f.Types.cached_pages;
    Hashtbl.iter
      (fun cl lids -> Share.invalidate_clients sys home ~clients:[ cl ] ~lids)
      by_client;
    (* Releasing a frame borrowed from another cell blocks on its return
       RPC. Unbind every old page and install the new contents first, so
       nothing pages the old contents back in meanwhile. A borrowed frame
       forgotten when its memory home died is no longer ours to release. *)
    let stale =
      Hashtbl.to_seq_values f.Types.cached_pages
      |> Seq.filter (Page_alloc.holds home)
      |> List.of_seq
    in
    Hashtbl.reset f.Types.cached_pages;
    List.iter (Pfdat.remove home) stale;
    f.Types.size <- Bytes.length content;
    f.Types.disk_content <- Bytes.copy content;
    List.iter (Page_alloc.release sys home) stale;
    f
  | None ->
    let psize = Flash.Config.page_size in
    let blocks = max 1 ((Bytes.length content + psize - 1) / psize) in
    (* File blocks grow upward from the front of the disk; the swap area
       owns the top [swap_blocks]. A file that would cross [swap_base]
       must be refused, not silently overlap the swap partition (the old
       fixed 1-MiB swap base made that collision possible on any disk
       whose file area outgrew it). *)
    if
      home.Types.next_disk_block + blocks + 8
      > Flash.Config.swap_base
    then begin
      Types.bump home Count.enospc;
      raise (Types.Syscall_error Types.ENOSPC)
    end;
    home.Types.next_ino <- home.Types.next_ino + 1;
    let f =
      {
        Types.fid = { home = home.Types.cell_id; ino = home.Types.next_ino };
        size = Bytes.length content;
        generation = 0;
        disk_block = home.Types.next_disk_block;
        cached_pages = Hashtbl.create 16;
        disk_content = Bytes.copy content;
        unlinked = false;
      }
    in
    home.Types.next_disk_block <- home.Types.next_disk_block + blocks + 8;
    Hashtbl.replace home.Types.files path f;
    Hashtbl.replace home.Types.files_by_ino f.Types.fid.Types.ino f;
    f

(* Load one page of a file into the data home's page cache (disk I/O). *)
let page_in (sys : Types.system) (home : Types.cell) (f : Types.file) page =
  let psize = Flash.Config.page_size in
  let lid = { Types.tag = Types.File_obj f.Types.fid; page } in
  match Pfdat.lookup home lid with
  | Some pf -> pf
  | None ->
    let pf = Page_alloc.alloc sys home in
    let off = page * psize in
    let avail = max 0 (min psize (Bytes.length f.Types.disk_content - off)) in
    (* Fresh pages (beyond the stable contents) have nothing to read from
       disk: extending writes must not pay an I/O. *)
    if avail > 0 then begin
      let disk =
        Flash.Machine.disk sys.Types.machine home.Types.boss_node
      in
      Flash.Disk.read sys.Types.eng disk
        ~block:(f.Types.disk_block + page)
        ~bytes:psize
    end;
    (* DMA the stable contents into the frame; fresh frames are already
       zero, so extension pages skip the fill entirely. A partial last
       page is still one page-sized write, zero-padded. *)
    if avail > 0 then begin
      let src, src_off =
        if avail = psize then (f.Types.disk_content, off)
        else begin
          let buf = Bytes.make psize '\000' in
          Bytes.blit f.Types.disk_content off buf 0 avail;
          (buf, 0)
        end
      in
      Kmem.write_sub sys (Flash.Addr.addr_of_pfn pf.Types.pfn) src src_off psize
    end;
    (* The disk read blocked: another thread may have cached the page
       meanwhile. The loser frees its frame and uses the winner's (the
       page-lock discipline of a real kernel). *)
    match Pfdat.lookup home lid with
    | Some winner ->
      Page_alloc.release sys home pf;
      winner
    | None ->
      Pfdat.insert home lid pf;
      Hashtbl.replace f.Types.cached_pages page pf;
      Types.bump home Count.page_ins;
      if Sim.Event.enabled sys.Types.events then
        Sim.Event.instant sys.Types.events ~cell:home.Types.cell_id
          ~args:
            [ ("pfn", Sim.Event.Int pf.Types.pfn);
              ("page", Sim.Event.Int page) ]
          ~cat:Sim.Event.Page "fs.page_in";
      pf

(* Grow the stable-content buffer, zero-filled, to at least [needed]
   bytes. *)
let grow_disk_content (f : Types.file) needed =
  let old = f.Types.disk_content in
  if Bytes.length old < needed then begin
    let bigger = Bytes.make needed '\000' in
    Bytes.blit old 0 bigger 0 (Bytes.length old);
    f.Types.disk_content <- bigger
  end

(* Copy a cached page into the stable-content buffer (no disk timing). *)
let stage_page (sys : Types.system) (home : Types.cell) (f : Types.file) page
    (pf : Types.pfdat) =
  let psize = Flash.Config.page_size in
  let off = page * psize in
  grow_disk_content f (off + psize);
  let dst = f.Types.disk_content in
  Kmem.read_into sys (Flash.Addr.addr_of_pfn pf.Types.pfn) psize dst off;
  (* The read blocked: if the contents were replaced meanwhile, the page
     belongs in the new buffer. *)
  if f.Types.disk_content != dst then
    Bytes.blit dst off f.Types.disk_content off psize;
  pf.Types.dirty <- false;
  Types.bump home Count.writebacks

(* Clustered writeback: stage every dirty page, then issue one contiguous
   disk write covering their span. *)
let sync_file (sys : Types.system) (home : Types.cell) (f : Types.file) =
  let psize = Flash.Config.page_size in
  let dirty = ref [] in
  Hashtbl.iter
    (fun page pf -> if pf.Types.dirty then dirty := (page, pf) :: !dirty)
    f.Types.cached_pages;
  match !dirty with
  | [] -> ()
  | pages ->
    let first = List.fold_left (fun a (p, _) -> min a p) max_int pages in
    let last = List.fold_left (fun a (p, _) -> max a p) 0 pages in
    (* Grow once, not once per page staged past the end. *)
    grow_disk_content f ((last + 1) * psize);
    List.iter (fun (page, pf) -> stage_page sys home f page pf) pages;
    let disk = Flash.Machine.disk sys.Types.machine home.Types.boss_node in
    Flash.Disk.write sys.Types.eng disk
      ~block:(f.Types.disk_block + first)
      ~bytes:((last - first + 1) * psize)

let sync_cell (sys : Types.system) (c : Types.cell) =
  Hashtbl.iter (fun _ f -> sync_file sys c f) c.Types.files

(* Preemptive-discard notification from the VM layer: a dirty page of this
   file was dropped; record the data loss by bumping the generation. *)
let note_discard (sys : Types.system) (home : Types.cell) (f : Types.file)
    ~page ~dirty =
  Hashtbl.remove f.Types.cached_pages page;
  if dirty then begin
    f.Types.generation <- f.Types.generation + 1;
    Types.bump home Count.generation_bumps;
    ignore sys
  end

(* ---------- Client-side operations ---------- *)

exception Stale of Types.errno

let check_gen (sys : Types.system) (c : Types.cell) vnode opened_gen =
  match vnode with
  | Types.Local_vnode f ->
    if f.Types.generation > opened_gen then raise (Types.Syscall_error Types.EIO)
  | Types.Shadow_vnode _ ->
    (* The generation check happens on the data home during locate; adding
       an RPC per client access would defeat the point of import caching,
       so the data home enforces it authoritatively in its handlers. *)
    ignore (sys, c)

(* Open: returns the vnode plus the generation observed at open time. *)
let open_file (sys : Types.system) (c : Types.cell) ~path =
  let home_id = home_of_path sys path in
  if home_id = c.Types.cell_id then begin
    Sim.Engine.delay Params.open_local_ns;
    match find_local c path with
    | Some f when not f.Types.unlinked ->
      Ok (Types.Local_vnode f, f.Types.generation)
    | _ -> Error Types.ENOENT
  end
  else begin
    (* Remote open: path lookup RPC to the data home plus shadow vnode
       setup. *)
    Sim.Engine.delay Params.open_remote_extra_ns;
    match Rpc.call sys ~target:home_id ~op:lookup_op (P_lookup { path }) with
    | Ok (P_attrs { ino; size = _; generation }) ->
      Ok
        ( Types.Shadow_vnode
            { fid = { home = home_id; ino }; path; data_home = home_id },
          generation )
    | Ok _ -> Error Types.EFAULT
    | Error e -> Error e
  end

let create_file (sys : Types.system) (c : Types.cell) ~path ~content =
  let home_id = home_of_path sys path in
  if home_id = c.Types.cell_id then begin
    Sim.Engine.delay Params.open_local_ns;
    let f = create_local sys c ~path ~content in
    Ok (Types.Local_vnode f, f.Types.generation)
  end
  else
    match
      Rpc.call sys ~target:home_id ~op:create_op
        ~arg_bytes:(64 + Bytes.length content)
        (P_create { path; content })
    with
    | Ok (P_created { ino; gen }) ->
      Ok
        ( Types.Shadow_vnode
            { fid = { home = home_id; ino }; path; data_home = home_id },
          gen )
    | Ok _ -> Error Types.EFAULT
    | Error e -> Error e

(* Get one page of a file, local or remote, for `Fault or `Syscall use.
   Returns the client-side pfdat (regular on the data home, extended
   elsewhere). [opened_gen] enforces the generation check. *)
let rec get_page (sys : Types.system) (c : Types.cell) vnode ~page ~writable
    ~opened_gen ~(usage : [ `Fault | `Syscall ]) =
  let fid = Types.vnode_fid vnode in
  let lid = { Types.tag = Types.File_obj fid; page } in
  match Pfdat.lookup c lid with
  | Some { Types.role = Types.Salvaged _; _ } when writable ->
    (* A salvaged copy is read-only: its data home is down, so a write
       must fail exactly as a locate RPC to the dead home would, instead
       of dirtying a local copy that is purged at reintegration. *)
    Error Types.EIO
  | Some pf
    when (not writable)
         || (match pf.Types.role with
            | Types.Import { writable = w; _ } -> w
            | Types.Home | Types.Salvaged _ | Types.Dropped -> true) ->
    (* Hit in the local pfdat hash table (possibly a parked import). A
       parked binding imported under a newer generation than this
       descriptor means the descriptor is stale: fail like the local
       path does, instead of serving data the open never saw. A binding
       older than the descriptor (its invalidation was lost) must not be
       served either — drop it and refetch from the data home. *)
    (match pf.Types.role with
    | Types.Import { gen; _ } when Pfdat.parked pf && gen > opened_gen ->
      Error Types.EIO
    | Types.Import { gen; _ } when Pfdat.parked pf && gen < opened_gen ->
      Pfdat.free_extended c pf;
      get_page sys c vnode ~page ~writable ~opened_gen ~usage
    | _ ->
      Share.cache_hit c pf;
      (match usage with
      | `Fault -> Sim.Engine.delay Params.fault_local_hit_ns
      | `Syscall -> Sim.Engine.delay Params.read_write_page_overhead_ns);
      if writable then pf.Types.dirty <- true;
      Ok pf)
  | Some pf ->
    (* Imported read-only but write wanted: rebind with write access. *)
    Pfdat.free_extended c pf;
    get_page sys c vnode ~page ~writable ~opened_gen ~usage
  | None -> (
    match vnode with
    | Types.Local_vnode f ->
      if f.Types.generation > opened_gen then Error Types.EIO
      else begin
        (match usage with
        | `Fault -> Sim.Engine.delay Params.fault_local_hit_ns
        | `Syscall -> Sim.Engine.delay Params.read_write_page_overhead_ns);
        let pf = page_in sys c f page in
        if writable then begin
          pf.Types.dirty <- true;
          Hashtbl.replace f.Types.cached_pages page pf
        end;
        Ok pf
      end
    | Types.Shadow_vnode { fid = sfid; data_home; _ } -> (
      (* Remote page: client-side file system work, locate RPC to the data
         home, then import. Sequential syscalls batch their locates;
         sequential fault streams grow an adaptive read-ahead window (a
         lone fault still locates one page, so sparse access patterns pay
         nothing extra). *)
      Sim.Engine.delay Params.fault_client_fs_ns;
      Types.bump c Count.remote_locates;
      let npages =
        match usage with
        | `Syscall -> locate_batch
        | `Fault ->
          let ra =
            match Hashtbl.find_opt c.Types.readahead fid with
            | Some r -> r
            | None ->
              let r = { Types.ra_last = min_int; ra_window = 1 } in
              Hashtbl.replace c.Types.readahead fid r;
              r
          in
          if page = ra.Types.ra_last + 1 then
            ra.Types.ra_window <-
              min (ra.Types.ra_window * 2)
                (if sys.Types.params.Params.enable_import_cache then
                   Params.fault_readahead_max
                 else 1)
          else ra.Types.ra_window <- 1;
          ra.Types.ra_window
      in
      Gate.pass_recovery sys c;
      let epoch = c.Types.flush_epoch in
      match
        Rpc.call sys ~target:data_home ~op:locate_op
          (P_locate
             { ino = sfid.Types.ino; page; npages; writable;
               gen = opened_gen })
      with
      | Ok (P_located _) when c.Types.flush_epoch <> epoch ->
        (* Recovery flushed this cell while the locate was in flight: the
           reply's frames (and the export records the home created for
           them) predate the preemptive discard. Wait out the round and
           relocate instead of binding stale frame numbers. *)
        Types.bump c Count.stale_locates;
        Gate.pass c;
        get_page sys c vnode ~page ~writable ~opened_gen ~usage
      | Ok (P_located { pages; gen }) -> (
        let imported =
          List.map
            (fun (pg, pfn) ->
              let l = { Types.tag = Types.File_obj fid; page = pg } in
              (pg, Share.import sys c ~pfn ~data_home ~lid:l ~gen ~writable))
            pages
        in
        (match usage with
        | `Fault -> (
          match Hashtbl.find_opt c.Types.readahead fid with
          | Some ra ->
            ra.Types.ra_last <-
              List.fold_left (fun a (pg, _) -> max a pg) page imported;
            let extra = List.length imported - 1 in
            if extra > 0 then
              Types.bump ~by:extra c Count.readahead_pages
          | None -> ())
        | `Syscall -> ());
        match List.assoc_opt page imported with
        | Some pf -> Ok pf
        | None -> Error Types.EIO)
      | Error e -> Error e
      | Ok _ -> Error Types.EFAULT))

(* The one read loop: walk [len] bytes at [pos] page by page through the
   (possibly remote) page cache, and hand each chunk to [access addr
   chunk done_], which charges the memory access for [chunk] bytes
   at [addr] (the read's bytes [done_] onwards); the copy-out to the
   user buffer is charged here. Reads past EOF see the zeros of the page
   cache, so every successful read covers exactly [len] bytes. *)
let read_pages (sys : Types.system) (c : Types.cell) vnode ~opened_gen ~pos
    ~len access =
  check_gen sys c vnode opened_gen;
  if len < 0 then invalid_arg "Fs.read";
  let psize = Flash.Config.page_size in
  let rec loop pos done_ =
    if done_ >= len then Ok ()
    else begin
      let page = pos / psize in
      let off = pos mod psize in
      let chunk = min (len - done_) (psize - off) in
      match get_page sys c vnode ~page ~writable:false ~opened_gen ~usage:`Syscall with
      | Error e -> Error e
      | Ok pf ->
        access (Flash.Addr.addr_of_pfn pf.Types.pfn + off) chunk done_;
        Sim.Engine.delay (Flash.Config.copy_cost chunk);
        loop (pos + chunk) (done_ + chunk)
    end
  in
  Types.bump c Count.reads;
  loop pos 0

let read sys c vnode ~opened_gen ~pos ~len =
  let out = Bytes.create (max 0 len) in
  read_pages sys c vnode ~opened_gen ~pos ~len (fun addr chunk done_ ->
      Kmem.read_into sys addr chunk out done_)
  |> Result.map (fun () -> out)

let read_discard sys c vnode ~opened_gen ~pos ~len =
  read_pages sys c vnode ~opened_gen ~pos ~len (fun addr chunk _ ->
      Kmem.read_discard sys addr chunk)

(* Write bytes at [pos], extending the file as needed. *)
let write (sys : Types.system) (c : Types.cell) vnode ~opened_gen ~pos data =
  check_gen sys c vnode opened_gen;
  let psize = Flash.Config.page_size in
  let len = Bytes.length data in
  let end_pos = ref 0 in
  let rec loop pos done_ =
    if done_ >= len then Ok len
    else begin
      let page = pos / psize in
      let off = pos mod psize in
      let chunk = min (len - done_) (psize - off) in
      end_pos := max !end_pos (pos + chunk);
      match get_page sys c vnode ~page ~writable:true ~opened_gen ~usage:`Syscall with
      | Error e -> Error e
      | Ok pf -> (
        (* Copy-in from the user buffer, then store through the firewall-
           checked memory system. *)
        Sim.Engine.delay (Flash.Config.copy_cost chunk);
        match
          Kmem.write_sub sys (Flash.Addr.addr_of_pfn pf.Types.pfn + off) data
            done_ chunk
        with
        | () ->
          (* Extending past EOF allocates blocks on the data home (the
             home charges this in its own handlers for remote writers). *)
          (match vnode with
          | Types.Local_vnode f ->
            if pos + chunk > f.Types.size then begin
              Sim.Engine.delay Params.fs_block_alloc_ns;
              f.Types.size <- pos + chunk
            end
          | Types.Shadow_vnode _ -> ());
          loop (pos + chunk) (done_ + chunk)
        | exception Flash.Memory.Bus_error _ -> Error Types.EFAULT)
    end
  in
  Types.bump c Count.writes;
  let r = loop pos 0 in
  (* The data home owns the file attributes: propagate an extension. *)
  (match (r, vnode) with
  | Ok _, Types.Shadow_vnode { fid; data_home; _ } ->
    ignore
      (Rpc.call sys ~target:data_home ~op:setsize_op
         (P_setsize { ino = fid.Types.ino; size = !end_pos }))
  | _ -> ());
  r

(* Release this client's idle import bindings for a file (called at
   close time, so firewall grants are revoked promptly rather than held
   until process exit). *)
let release_file_imports (sys : Types.system) (c : Types.cell) vnode =
  match vnode with
  | Types.Local_vnode _ -> ()
  | Types.Shadow_vnode { fid; _ } ->
    let idle (pf : Types.pfdat) =
      match (pf.Types.lid, pf.Types.role) with
      | Some { Types.tag = Types.File_obj f; _ }, Types.Import _ ->
        f.Types.ino = fid.Types.ino && f.Types.home = fid.Types.home
        && pf.Types.refs = 0 && not (Pfdat.parked pf)
      | _ -> false
    in
    (* One vectored release per data home. *)
    Share.release_all sys c (Pfdat.imports c idle)

let file_size (sys : Types.system) vnode =
  match vnode with
  | Types.Local_vnode f -> Ok f.Types.size
  | Types.Shadow_vnode { data_home; path; _ } -> (
    match Rpc.call sys ~target:data_home ~op:lookup_op (P_lookup { path }) with
    | Ok (P_attrs { size; _ }) -> Ok size
    | Ok _ -> Error Types.EFAULT
    | Error e -> Error e)

(* Drop [path] from its home cell's name table; false if it is absent. *)
let remove_local (c : Types.cell) path =
  match find_local c path with
  | Some f ->
    f.Types.unlinked <- true;
    Hashtbl.remove c.Types.files path;
    true
  | None -> false

let unlink (sys : Types.system) (c : Types.cell) path =
  let home_id = home_of_path sys path in
  if home_id = c.Types.cell_id then
    if remove_local c path then Ok () else Error Types.ENOENT
  else
    match Rpc.call sys ~target:home_id ~op:unlink_op (P_unlink { path }) with
    | Ok _ -> Ok ()
    | Error e -> Error e

(* ---------- RPC handlers (data-home side) ---------- *)

let () =
  Rpc.serve lookup_op (fun _sys cell ~src:_ arg ->
      match arg with
      | P_lookup { path } -> (
        match find_local cell path with
        | Some f when not f.Types.unlinked ->
          Types.Queued
            (fun () ->
              Sim.Engine.delay Params.open_local_ns;
              Ok
                (P_attrs
                   {
                     ino = f.Types.fid.Types.ino;
                     size = f.Types.size;
                     generation = f.Types.generation;
                   }))
        | _ -> Types.Immediate (Error Types.ENOENT))
      | _ -> Types.Immediate (Error Types.EFAULT))

let () =
  Rpc.serve create_op (fun sys cell ~src:_ arg ->
      match arg with
      | P_create { path; content } ->
        Types.Queued
          (fun () ->
            Sim.Engine.delay Params.open_local_ns;
            let f = create_local sys cell ~path ~content in
            Ok
              (P_created
                 { ino = f.Types.fid.Types.ino; gen = f.Types.generation }))
      | _ -> Types.Immediate (Error Types.EFAULT))

let () =
  Rpc.serve unlink_op (fun _sys cell ~src:_ arg ->
      match arg with
      | P_unlink { path } ->
        Types.Immediate
          (if remove_local cell path then Ok Types.P_unit
           else Error Types.ENOENT)
      | _ -> Types.Immediate (Error Types.EFAULT))

let () =
  Rpc.serve setsize_op (fun _sys cell ~src:_ arg ->
      match arg with
      | P_setsize { ino; size } ->
        (match find_by_ino cell ino with
        | Some f -> f.Types.size <- max f.Types.size size
        | None -> ());
        Types.Immediate (Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))

let () =
  Rpc.serve locate_op (fun sys cell ~src arg ->
      match arg with
      | P_locate { ino; page; npages; writable; gen } -> (
        match find_by_ino cell ino with
        | None -> Types.Immediate (Error Types.ENOENT)
        | Some f ->
          if f.Types.generation > gen then
            (* The client's descriptor predates a preemptive discard:
               the home enforces the generation check for all remote
               accesses (the client-side shadow path never re-checks). *)
            Types.Immediate (Error Types.EIO)
          else begin
            let psize = Flash.Config.page_size in
            (* Writable locates pre-allocate the whole requested cluster
               (an extending writer will fill it); read locates stop at
               EOF. *)
            let last_page =
              if writable then page + npages - 1
              else max page ((max 1 f.Types.size - 1) / psize)
            in
            let wanted =
              List.init
                (min npages (last_page - page + 1))
                (fun i -> page + i)
            in
            let all_cached =
              List.for_all
                (fun pg -> Hashtbl.mem f.Types.cached_pages pg)
                wanted
            in
            (* A writable export may have to invalidate other clients'
               parked bindings — an RPC, so it cannot run at interrupt
               level. *)
            let invalidating =
              writable
              && List.exists
                   (fun pg ->
                     match Hashtbl.find_opt f.Types.cached_pages pg with
                     | Some pf -> Share.needs_invalidate pf ~client:src
                     | None -> false)
                   wanted
            in
            let serve () =
              Sim.Engine.delay Params.fault_home_vm_ns;
              (* Page everything in first: the disk reads may block, and
                 a generation bump landing mid-batch must fail the whole
                 batch before any page is exported — never export a mix
                 of pre- and post-discard pages. *)
              (* Hold each frame for the rest of the batch: later
                 page_ins block on disk, and an unreferenced,
                 not-yet-exported frame is fair game for the clock
                 hand's reclaim sweep. Pins are registered as they are
                 taken so a mid-batch failure (OOM, kill) still
                 releases the earlier ones; the guard against pins = 0
                 covers a frame force-freed (truncate) under the pin. *)
              let pinned = ref [] in
              Fun.protect
                ~finally:(fun () ->
                  List.iter
                    (fun (pf : Types.pfdat) ->
                      if pf.Types.pins > 0 then
                        pf.Types.pins <- pf.Types.pins - 1)
                    !pinned)
                (fun () ->
                  let pfs =
                    List.map
                      (fun pg ->
                        (* Block allocation for pages a remote writer
                           extends. *)
                        if writable && pg * psize >= f.Types.size then
                          Sim.Engine.delay
                            Params.fs_block_alloc_ns;
                        let pf = page_in sys cell f pg in
                        pf.Types.pins <- pf.Types.pins + 1;
                        pinned := pf :: !pinned;
                        (pg, pf))
                      wanted
                  in
                  if f.Types.generation > gen then Error Types.EIO
                  else begin
                    let pages =
                      List.map
                        (fun (pg, pf) ->
                          Share.export sys cell pf ~client:src ~writable;
                          if writable then pf.Types.dirty <- true;
                          (pg, pf.Types.pfn))
                        pfs
                    in
                    Ok (P_located { pages; gen = f.Types.generation })
                  end)
            in
            if all_cached && not invalidating then
              (* Hit in the file cache: serviced entirely at interrupt
                 level (Section 4.3 explains why no blocking locks are
                 needed on this path). *)
              Types.Immediate (serve ())
            else Types.Queued serve
          end)
      | _ -> Types.Immediate (Error Types.EFAULT))
