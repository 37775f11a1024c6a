(* Page frames and who holds them (Sections 3.2 and 5.4): the frame state
   machine. Each transition does all of its own bookkeeping (free pool,
   pfdat and page-table binding, firewall bits of a loan); an illegal one
   means the kernel's frame bookkeeping is corrupt, so it panics the cell.
   Under memory pressure a cell borrows frames from their memory home. *)

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

let own (c : Types.cell) pfn = Types.own_frame c.Types.pool pfn

let state (c : Types.cell) pfn =
  let p = c.Types.pool in
  match Hashtbl.find_opt p.Types.held pfn with
  | Some st -> st
  | None when own c pfn && pfn >= p.Types.own_lo + p.Types.fresh -> Types.Free
  | None -> Types.Not_held

let set (c : Types.cell) pfn st = Hashtbl.replace c.Types.pool.Types.held pfn st

(* [pf] is the live pfdat of its frame: not released, and not forgotten
   when its memory home died. *)
let holds (c : Types.cell) (pf : Types.pfdat) =
  match Hashtbl.find_opt c.Types.frames pf.Types.pfn with
  | Some q -> q == pf
  | None -> false

(* The kernel's frame bookkeeping is corrupt: panic, and unwind the
   thread that found it. *)
let illegal (sys : Types.system) (c : Types.cell) pfn what =
  let st =
    match state c pfn with
    | Types.Free -> "free"
    | Types.In_use -> "in use"
    | Types.Loaned b -> Printf.sprintf "loaned to cell %d" b
    | Types.Not_held -> "not held"
  in
  let reason =
    Printf.sprintf "t=%Ldns cell %d pfn %d: illegal %s of a frame that is %s"
      (Sim.Engine.now sys.Types.eng) c.Types.cell_id pfn what st
  in
  Panic.panic sys c reason;
  raise (Panic.Kernel_corruption reason)

let lender (sys : Types.system) pfn =
  (Types.cell_of_node sys (Flash.Addr.node_of_pfn sys.Types.mcfg pfn))
    .Types.cell_id

let free_count (c : Types.cell) = c.Types.pool.Types.nfree

let total_frames (c : Types.cell) =
  c.Types.pool.Types.own_hi - c.Types.pool.Types.own_lo

(* The frames [c] holds in a state satisfying [keep], by pfn. *)
let held (c : Types.cell) keep =
  Hashtbl.fold
    (fun pfn st acc -> if keep pfn st then pfn :: acc else acc)
    c.Types.pool.Types.held []
  |> List.sort compare

(* Local memory pressure: free frames below [pct] percent of the frames
   the cell owns (floor of 8 so tiny test cells still have a watermark). *)
let low_water (c : Types.cell) ~pct = max 8 (total_frames c * pct / 100)

let under_pressure (c : Types.cell) ~pct = free_count c < low_water c ~pct

(* Reset a frame's vector to its node's default, keeping a loaned frame's
   grant to its borrower. Runs on the frame's own processor. *)
let reset_firewall (sys : Types.system) (c : Types.cell) pfn =
  let fw = Flash.Machine.firewall sys.Types.machine in
  let by = Flash.Addr.node_of_pfn sys.Types.mcfg pfn in
  Flash.Firewall.reset fw ~by ~pfn;
  match state c pfn with
  | Types.Loaned b ->
    Flash.Firewall.grant_many fw ~by ~pfn sys.Types.cells.(b).Types.cell_nodes
  | Types.Free | Types.In_use | Types.Not_held -> ()

(* Free -> [st] for the next frame of the free pool: own frames last
   freed first, then the fresh ones in order, then (unless [own_only])
   borrowed frames in arrival order. *)
let take (sys : Types.system) (c : Types.cell) ~own_only st =
  let p = c.Types.pool in
  let next =
    match (p.Types.own_free, p.Types.borrowed_free) with
    | pfn :: rest, _ ->
      p.Types.own_free <- rest;
      Some pfn
    | [], _ when p.Types.own_lo + p.Types.fresh < p.Types.own_hi ->
      Some (p.Types.own_lo + p.Types.fresh)
    | [], pfn :: rest when not own_only ->
      p.Types.borrowed_free <- rest;
      Some pfn
    | [], _ -> None
  in
  Option.iter
    (fun pfn ->
      if state c pfn <> Types.Free then
        illegal sys c pfn (if st = Types.In_use then "alloc" else "loan");
      (* Only the first fresh frame can equal [own_lo + fresh]. *)
      if pfn = p.Types.own_lo + p.Types.fresh then
        p.Types.fresh <- p.Types.fresh + 1;
      p.Types.nfree <- p.Types.nfree - 1;
      set c pfn st)
    next;
  next

let free_own (c : Types.cell) pfn =
  let p = c.Types.pool in
  set c pfn Types.Free;
  p.Types.own_free <- pfn :: p.Types.own_free;
  p.Types.nfree <- p.Types.nfree + 1

(* Free -> In_use, with a new pfdat in [frames]; no reclaim, no borrowing. *)
let take_free ?(own_only = false) (sys : Types.system) (c : Types.cell) =
  Option.map
    (fun pfn ->
      let pf = Pfdat.make ~pfn in
      Hashtbl.replace c.Types.frames pfn pf;
      pf)
    (take sys c ~own_only Types.In_use)

(* Borrower side: tell the memory homes their frames came back. *)
let send_return (sys : Types.system) pfns =
  List.iter
    (fun pfn ->
      ignore
        (Rpc.call sys ~target:(lender sys pfn) ~op:return_op
           (P_return { pfns = [ pfn ] })))
    pfns

(* In_use -> Free: unbind the page and forget its pfdat, which must be
   the frame's live one (releasing a stale one is a double free). A
   borrowed frame goes straight back to its memory home. *)
let release (sys : Types.system) (c : Types.cell) (pf : Types.pfdat) =
  let pfn = pf.Types.pfn in
  (match (state c pfn, Hashtbl.find_opt c.Types.frames pfn) with
  | Types.In_use, Some q when q == pf -> ()
  | Types.In_use, _ -> illegal sys c pfn "release of a stale pfdat"
  | _ -> illegal sys c pfn "release");
  Pfdat.remove c pf;
  pf.Types.dirty <- false;
  pf.Types.refs <- 0;
  if own c pfn then begin
    Hashtbl.remove c.Types.frames pfn;
    free_own c pfn
  end
  else begin
    Pfdat.free_extended c pf;
    Hashtbl.remove c.Types.pool.Types.held pfn;
    send_return sys [ pfn ]
  end

(* The swap claim: a pin keeps every other reclaim path off an idle
   in-use frame while the swapper copies it out. *)
let claim (sys : Types.system) (c : Types.cell) (pf : Types.pfdat) =
  if not (holds c pf) then illegal sys c pf.Types.pfn "swap claim";
  pf.Types.pins <- pf.Types.pins + 1

let unclaim (pf : Types.pfdat) = pf.Types.pins <- pf.Types.pins - 1

(* Try to reclaim idle cached pages (a trivial stand-in for the VM clock
   hand): drop clean, unreferenced, unexported file pages. *)
let reclaim (sys : Types.system) (c : Types.cell) ~want =
  let reclaimed = ref 0 in
  let victims = ref [] in
  Types.Page_hash.iter
    (fun lid pf ->
      if
        !reclaimed < want && Pfdat.is_idle pf && (not pf.Types.dirty)
        && not (Pfdat.extended c pf)
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
      release sys c pf)
    !victims;
  !reclaimed

(* Borrower side, Not_held -> Free: [count] frames from [home] join the
   back of the free pool. Returns their pfns. *)
let borrow (sys : Types.system) (c : Types.cell) ~home ~count =
  Types.bump c Count.borrows;
  match Rpc.call sys ~target:home ~op:borrow_op (P_borrow { count }) with
  | Ok (P_borrowed { pfns }) ->
    let p = c.Types.pool in
    List.iter
      (fun pfn ->
        if state c pfn <> Types.Not_held then illegal sys c pfn "borrow";
        set c pfn Types.Free;
        p.Types.nfree <- p.Types.nfree + 1)
      pfns;
    p.Types.borrowed_free <- p.Types.borrowed_free @ pfns;
    pfns
  | Ok _ | Error _ -> []

(* Borrower side, Free or In_use -> Not_held without a release: the
   frames leave the pool and [frames]. *)
let forget (c : Types.cell) pfns =
  let p = c.Types.pool in
  List.iter
    (fun pfn ->
      if state c pfn = Types.Free then p.Types.nfree <- p.Types.nfree - 1
      else Option.iter (Pfdat.free_extended c) (Hashtbl.find_opt c.Types.frames pfn);
      Hashtbl.remove p.Types.held pfn)
    pfns;
  p.Types.borrowed_free <-
    List.filter (Hashtbl.mem p.Types.held) p.Types.borrowed_free

(* Borrower side, Free -> Not_held: hand free borrowed frames back. *)
let return_frames (sys : Types.system) (c : Types.cell) pfns =
  List.iter
    (fun pfn ->
      if own c pfn || state c pfn <> Types.Free then illegal sys c pfn "return")
    pfns;
  forget c pfns;
  send_return sys pfns

(* Memory-home side, Free -> Loaned: lend up to [count] own frames to
   [client], granting its processors write access. *)
let loan (sys : Types.system) (home : Types.cell) ~client ~count =
  let rec go n acc =
    match
      if n = 0 then None
      else take sys home ~own_only:true (Types.Loaned client)
    with
    | None -> acc
    | Some pfn ->
      reset_firewall sys home pfn;
      go (n - 1) (pfn :: acc)
  in
  go count []

(* Memory-home side, Loaned -> Free: the frame is back, and its vector
   returns to the node default. *)
let unloan (sys : Types.system) (home : Types.cell) pfn =
  (match state home pfn with
  | Types.Loaned _ -> ()
  | _ -> illegal sys home pfn "unloan");
  free_own home pfn;
  reset_firewall sys home pfn

(* Recovery: take back the frames loaned to dead cells, and forget those
   borrowed from them, handing the pfdat of each in-use one to [lost]
   first. *)
let settle_dead (sys : Types.system) (c : Types.cell) ~dead ~lost =
  held c (fun _ st -> match st with Types.Loaned b -> List.mem b dead | _ -> false)
  |> List.iter (unloan sys c);
  let gone =
    held c (fun pfn _ -> (not (own c pfn)) && List.mem (lender sys pfn) dead)
  in
  List.iter (fun pfn -> Option.iter lost (Hashtbl.find_opt c.Types.frames pfn)) gone;
  forget c gone

(* Allocate one frame: a free one, else one freed by reclaiming idle
   cached pages, else one borrowed from another cell in Wax's preference
   order. *)
let alloc (sys : Types.system) (c : Types.cell) =
  let borrowed home =
    home <> c.Types.cell_id
    && List.mem home c.Types.live_set
    && borrow sys c ~home ~count:8 <> []
  in
  match take_free sys c with
  | Some pf -> pf
  | None -> (
    let refilled =
      reclaim sys c ~want:8 > 0
      || List.exists borrowed
           (c.Types.alloc_preference
           @ List.init (Array.length sys.Types.cells) Fun.id)
    in
    match if refilled then take_free sys c else None with
    | Some pf -> pf
    | None -> raise Out_of_memory)

let () =
  Rpc.serve borrow_op (fun sys cell ~src arg ->
      match arg with
      | P_borrow { count } ->
        Types.Immediate (Ok (P_borrowed { pfns = loan sys cell ~client:src ~count }))
      | _ -> Types.Immediate (Error Types.EFAULT))

(* A return names frames a remote cell says it borrowed: only those
   really loaned to it come back. *)
let () =
  Rpc.serve return_op (fun sys cell ~src arg ->
      match arg with
      | P_return { pfns } ->
        List.iter
          (fun pfn -> if state cell pfn = Types.Loaned src then unloan sys cell pfn)
          pfns;
        Types.Immediate (Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))
