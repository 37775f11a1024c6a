exception Not_local_processor

(* Sparse per-node storage: almost every page of a node carries that
   node's boot-time default permission set (its owning cell's
   processors); only pages with outstanding remote grants differ. Each
   node therefore keeps one default set plus an exception table keyed by
   local page index. Boot is O(1) per node ([set_node_default]) instead
   of O(pages) vector stores, and the recovery scans
   ([pages_writable_by_mask], [remote_writable_pages]) walk only the
   exception table instead of every page of memory. *)
type node_perms = {
  mutable dflt : Procset.t;
  except : (int, Procset.t) Hashtbl.t; (* local page index -> vector *)
}

type t = {
  cfg : Config.t;
  perms : node_perms array;
  mutable notify :
    (pfn:Addr.pfn -> old_vec:Procset.t -> new_vec:Procset.t -> unit) option;
      (* observer invoked on every real permission-vector change *)
}

let create cfg =
  Config.validate cfg;
  {
    cfg;
    perms =
      Array.init cfg.Config.nodes (fun _ ->
          { dflt = Procset.empty; except = Hashtbl.create 16 });
    notify = None;
  }

let set_notify t f = t.notify <- Some f

let proc_mask procs = Procset.of_list procs

let vector t ~pfn =
  let np = t.perms.(Addr.node_of_pfn t.cfg pfn) in
  match Hashtbl.find_opt np.except (Addr.local_index t.cfg pfn) with
  | Some v -> v
  | None -> np.dflt

let allowed t ~pfn ~proc =
  let np = t.perms.(Addr.node_of_pfn t.cfg pfn) in
  match Hashtbl.find_opt np.except (Addr.local_index t.cfg pfn) with
  | Some v -> Procset.mem v proc
  | None -> Procset.mem np.dflt proc

let check_local t ~by ~pfn =
  (* Only the local processor can change the firewall bits for the memory
     of its node. *)
  if Addr.node_of_pfn t.cfg pfn <> by then raise Not_local_processor

let set_vector t ~by ~pfn v =
  check_local t ~by ~pfn;
  let np = t.perms.(Addr.node_of_pfn t.cfg pfn) in
  let i = Addr.local_index t.cfg pfn in
  let old =
    match Hashtbl.find_opt np.except i with Some o -> o | None -> np.dflt
  in
  if not (Procset.equal old v) then begin
    if Procset.equal v np.dflt then Hashtbl.remove np.except i
    else Hashtbl.replace np.except i v;
    match t.notify with
    | Some f -> f ~pfn ~old_vec:old ~new_vec:v
    | None -> ()
  end

(* Reset every page of [node] to permission set [v] in one operation: the
   boot/reboot path (grant the owning cell's processors everything,
   wiping any grants a previous incarnation handed out). Reported to the
   observer as a single change on the node's first page. *)
let set_node_default t ~by ~node v =
  if node <> by then raise Not_local_processor;
  let np = t.perms.(node) in
  let old = np.dflt in
  if not (Procset.equal old v) || Hashtbl.length np.except > 0 then begin
    np.dflt <- v;
    Hashtbl.reset np.except;
    match t.notify with
    | Some f ->
      f ~pfn:(Addr.first_pfn_of_node t.cfg node) ~old_vec:old ~new_vec:v
    | None -> ()
  end

let grant t ~by ~pfn ~proc =
  set_vector t ~by ~pfn (Procset.add (vector t ~pfn) proc)

let revoke t ~by ~pfn ~proc =
  set_vector t ~by ~pfn (Procset.remove (vector t ~pfn) proc)

let grant_many t ~by ~pfn procs =
  set_vector t ~by ~pfn
    (Procset.union (vector t ~pfn) (Procset.of_list procs))

let reset t ~by ~pfn =
  set_vector t ~by ~pfn
    (Procset.add t.perms.(Addr.node_of_pfn t.cfg pfn).dflt by)

let remote_writable_pages t ~node =
  let np = t.perms.(node) in
  let has_others v = not (Procset.is_empty (Procset.remove v node)) in
  let base =
    if has_others np.dflt then
      t.cfg.Config.mem_pages_per_node - Hashtbl.length np.except
    else 0
  in
  Hashtbl.fold
    (fun _ v acc -> if has_others v then acc + 1 else acc)
    np.except base

let pages_writable_by_mask t ~node ~mask =
  let np = t.perms.(node) in
  let base = Addr.first_pfn_of_node t.cfg node in
  if Procset.intersects np.dflt mask then begin
    (* Default matches: every page qualifies except non-matching
       exceptions (rare — only reachable when a mask names the node's own
       cell). *)
    let acc = ref [] in
    for i = t.cfg.Config.mem_pages_per_node - 1 downto 0 do
      let v =
        match Hashtbl.find_opt np.except i with
        | Some v -> v
        | None -> np.dflt
      in
      if Procset.intersects v mask then acc := (base + i) :: !acc
    done;
    !acc
  end
  else
    Hashtbl.fold
      (fun i v acc ->
        if Procset.intersects v mask then (base + i) :: acc else acc)
      np.except []
    |> List.sort compare

let writable_by t ~proc =
  let acc = ref [] in
  for node = t.cfg.Config.nodes - 1 downto 0 do
    acc :=
      pages_writable_by_mask t ~node ~mask:(Procset.singleton proc) @ !acc
  done;
  !acc
