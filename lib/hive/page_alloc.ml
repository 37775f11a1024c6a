(* Per-cell page frame allocation with physical-level sharing (Sections
   3.2 and 5.4).

   Each cell manages a free list of the frames it owns. Under memory
   pressure the allocator can *borrow* frames from another cell (the
   memory home), which moves them to a reserved list and ignores them
   until the borrower returns them or fails. Requests carry constraints: a
   set of acceptable cells and a preferred cell; frames for internal
   kernel use must be local, since the firewall does not defend against
   wild writes by the memory home. *)

module Count = struct
  let borrows =
    Sim.Stats.declare ~name:"page_alloc.borrows" ~unit:"calls"
      ~doc:"frame borrow requests sent to another cell"
end

type Types.payload +=
  | P_borrow of { count : int }
  | P_borrowed of { pfns : int list }
  | P_return of { pfns : int list }

let borrow_op = Rpc.Op.declare "page_alloc.borrow"

let return_op = Rpc.Op.declare "page_alloc.return"

exception Out_of_memory

let free_count (c : Types.cell) = c.Types.free_frame_count

(* Local memory pressure: free frames below [pct] percent of the frames
   the cell owns (floor of 8 so tiny test cells still have a watermark).
   Used by the clock hand's low-water check and by Wax's pressure
   classification, replacing the old fixed 32-frame threshold that was
   meaningless for both tiny and 64-cell shapes. *)
let low_water (c : Types.cell) ~pct =
  max 8 (c.Types.total_frames * pct / 100)

let under_pressure (c : Types.cell) ~pct = free_count c < low_water c ~pct

(* Try to reclaim idle cached pages (a trivial stand-in for the VM clock
   hand): drop clean, unreferenced, unexported file pages. *)
let reclaim (_sys : Types.system) (c : Types.cell) ~want =
  let reclaimed = ref 0 in
  let victims = ref [] in
  Types.Page_hash.iter
    (fun lid pf ->
      if
        !reclaimed < want && Pfdat.is_idle pf && (not pf.Types.dirty)
        && (not pf.Types.extended)
        && pf.Types.borrowed_from = None
      then begin
        victims := (lid, pf) :: !victims;
        incr reclaimed
      end)
    c.Types.page_hash;
  List.iter
    (fun (lid, pf) ->
      (match lid.Types.tag with
      | Types.File_obj fid -> (
        match Hashtbl.find_opt c.Types.files_by_ino fid.Types.ino with
        | Some f -> Hashtbl.remove f.Types.cached_pages lid.Types.page
        | None -> ())
      | Types.Anon_obj _ -> ());
      Pfdat.remove c pf;
      Hashtbl.remove c.Types.frames pf.Types.pfn;
      Types.push_free c pf.Types.pfn)
    !victims;
  !reclaimed

(* Grab one local free frame if available. *)
let take_local (c : Types.cell) = Types.take_free c

(* Loan [count] frames to [client]: memory-home side of borrowing. *)
let loan_frames (sys : Types.system) (home : Types.cell) ~client ~count =
  let rec take n acc =
    if n = 0 then acc
    else
      match take_local home with
      | Some pfn ->
        let pf = Pfdat.of_frame home pfn in
        pf.Types.loaned_to <- Some client;
        home.Types.reserved_loans <- pfn :: home.Types.reserved_loans;
        take (n - 1) (pfn :: acc)
      | None -> acc
  in
  ignore sys;
  take count []

(* Borrow frames from [home] (RPC); they join the local free pool with
   extended pfdats marked borrowed. Returns the borrowed pfns. *)
let borrow_from (sys : Types.system) (c : Types.cell) ~home ~count =
  Types.bump c Count.borrows;
  match
    Rpc.call sys ~from:c ~target:home ~op:borrow_op (P_borrow { count })
  with
  | Ok (P_borrowed { pfns }) ->
    List.iter
      (fun pfn ->
        let pf = Pfdat.alloc_extended ~pfn in
        pf.Types.borrowed_from <- Some home;
        Hashtbl.replace c.Types.frames pfn pf;
        Types.push_free_last c pfn)
      pfns;
    pfns
  | Ok _ | Error _ -> []

(* Return a borrowed frame to its memory home as soon as the cached data
   is no longer in use (the current, admittedly crude, policy). *)
let return_frame (sys : Types.system) (c : Types.cell) (pf : Types.pfdat) =
  match pf.Types.borrowed_from with
  | None -> invalid_arg "return_frame: not borrowed"
  | Some home ->
    Pfdat.free_extended c pf;
    Types.remove_free c pf.Types.pfn;
    ignore
      (Rpc.call sys ~from:c ~target:home ~op:return_op
         (P_return { pfns = [ pf.Types.pfn ] }))

(* Allocate one frame for cell [c].

   [kernel_only] forbids borrowed frames. [preferred] biases towards a
   memory home (Wax supplies the intercell preference list). *)
let alloc_frame ?(kernel_only = false) ?preferred (sys : Types.system)
    (c : Types.cell) =
  let try_preference () =
    (* Borrow from the preferred remote cell (CC-NUMA placement). *)
    match preferred with
    | Some home
      when home <> c.Types.cell_id
           && List.mem home c.Types.live_set
           && not kernel_only -> (
      match borrow_from sys c ~home ~count:1 with
      | pfn :: _ ->
        Types.remove_free c pfn;
        Some pfn
      | [] -> None)
    | _ -> None
  in
  match try_preference () with
  | Some pfn -> Pfdat.of_frame c pfn
  | None -> (
    match take_local c with
    | Some pfn -> Pfdat.of_frame c pfn
    | None ->
      (* Memory pressure: reclaim, then borrow per Wax preference order. *)
      if reclaim sys c ~want:8 > 0 then
        match take_local c with
        | Some pfn -> Pfdat.of_frame c pfn
        | None -> raise Out_of_memory
      else if kernel_only then raise Out_of_memory
      else begin
        let order =
          c.Types.alloc_preference
          @ List.filter
              (fun id -> id <> c.Types.cell_id)
              (Array.to_list (Array.map (fun cl -> cl.Types.cell_id) sys.Types.cells))
        in
        let rec try_borrow = function
          | [] -> raise Out_of_memory
          | home :: rest ->
            if
              home <> c.Types.cell_id
              && List.mem home c.Types.live_set
              && borrow_from sys c ~home ~count:8 <> []
            then
              match take_local c with
              | Some pfn -> Pfdat.of_frame c pfn
              | None -> raise Out_of_memory
            else try_borrow rest
        in
        try_borrow order
      end)

(* Free a frame: borrowed frames go back to their memory home; local
   frames rejoin the free list. *)
let free_frame (sys : Types.system) (c : Types.cell) (pf : Types.pfdat) =
  Pfdat.remove c pf;
  pf.Types.dirty <- false;
  pf.Types.refs <- 0;
  if pf.Types.borrowed_from <> None then return_frame sys c pf
  else begin
    Hashtbl.remove c.Types.frames pf.Types.pfn;
    Types.push_free c pf.Types.pfn
  end

let () =
  Rpc.serve borrow_op (fun sys cell ~src arg ->
      match arg with
      | P_borrow { count } ->
        let pfns = loan_frames sys cell ~client:src ~count in
        Types.Immediate (Ok (P_borrowed { pfns }))
      | _ -> Types.Immediate (Error Types.EFAULT))

let () =
  Rpc.serve return_op (fun sys cell ~src:_ arg ->
      match arg with
      | P_return { pfns } ->
        List.iter
          (fun pfn ->
            (match Hashtbl.find_opt cell.Types.frames pfn with
            | Some pf -> pf.Types.loaned_to <- None
            | None -> ());
            cell.Types.reserved_loans <-
              List.filter (fun p -> p <> pfn) cell.Types.reserved_loans;
            Types.push_free cell pfn;
            ignore sys)
          pfns;
        Types.Immediate (Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))
