(* The swapper: anonymous pages whose backing store is the swap partition
   (Section 5.3 calls anonymous pages "those whose backing store is in the
   swap partition"; Table 3.4 lists "which processes to swap" among the
   Wax-driven policies).

   Each cell owns a swap area on its local disk: the top
   [Config.swap_blocks] blocks ([Config.swap_base] upward — derived from
   the disk geometry, so file blocks can never overlap the swap area no
   matter the machine size). Swapping out an idle anonymous page writes
   it to a swap block and frees the frame; the next fault finds it
   neither in the page cache nor in the COW record path and swaps it back
   in from that block. Only pages homed on this cell (its own anonymous
   data) are swapped: the firewall rules already forbid trusting remote
   frames for kernel-critical data, and remote clients simply re-import
   after a swap-in. *)

module Count = struct
  let ins =
    Sim.Stats.declare ~name:"swap.ins" ~unit:"pages"
      ~doc:"anonymous pages swapped in"
  let outs =
    Sim.Stats.declare ~name:"swap.outs" ~unit:"pages"
      ~doc:"anonymous pages swapped out"
  let partition_full =
    Sim.Stats.declare ~name:"swap.partition_full" ~unit:"count"
      ~doc:"swap-outs refused by a full partition"
end

let is_swappable (c : Types.cell) (pf : Types.pfdat) =
  Pfdat.is_idle pf
  && (not (Pfdat.extended c pf))
  &&
  match pf.Types.lid with
  | Some { Types.tag = Types.Anon_obj _; _ } -> true
  | _ -> false

(* Allocate a block within the swap area: reuse a freed block, else bump.
   None when the partition is full. *)
let alloc_swap_block (c : Types.cell) =
  match c.Types.swap_free_blocks with
  | b :: rest ->
    c.Types.swap_free_blocks <- rest;
    Some b
  | [] ->
    if c.Types.swap_blocks_used >= Flash.Config.swap_blocks then None
    else begin
      let b = c.Types.swap_blocks_used in
      c.Types.swap_blocks_used <- c.Types.swap_blocks_used + 1;
      Some b
    end

(* Swap one anonymous page out to the local swap partition. The page is
   claimed before the copy blocks, so a racing swap pass skips it, and
   freed after only if still idle and bound to the same id. *)
let swap_out_page (sys : Types.system) (c : Types.cell) (pf : Types.pfdat) =
  match pf.Types.lid with
  | Some ({ Types.tag = Types.Anon_obj _; _ } as lid) when is_swappable c pf -> (
    match alloc_swap_block c with
    | None ->
      Types.bump c Count.partition_full;
      false
    | Some block ->
      Page_alloc.claim sys c pf;
      let psize = Flash.Config.page_size in
      let addr = Flash.Addr.addr_of_pfn pf.Types.pfn in
      let data = Kmem.read sys addr psize in
      let disk = Flash.Machine.disk sys.Types.machine c.Types.boss_node in
      Flash.Disk.write sys.Types.eng disk
        ~block:(Flash.Config.swap_base + block)
        ~bytes:psize;
      Page_alloc.unclaim pf;
      if Pfdat.is_idle pf && pf.Types.lid = Some lid then begin
        Hashtbl.replace c.Types.swap_table lid (block, data);
        Page_alloc.release sys c pf;
        Types.bump c Count.outs;
        true
      end
      else begin
        c.Types.swap_free_blocks <- block :: c.Types.swap_free_blocks;
        false
      end)
  | _ -> false

(* Reclaim up to [want] frames by swapping idle anonymous pages out. *)
let swap_out_idle (sys : Types.system) (c : Types.cell) ~want =
  let victims = ref [] in
  let n = ref 0 in
  Pfdat.iter_pages c (fun pf ->
      if !n < want && is_swappable c pf then begin
        victims := pf :: !victims;
        incr n
      end);
  List.fold_left
    (fun acc pf -> if swap_out_page sys c pf then acc + 1 else acc)
    0 !victims

(* Fault-time swap-in: if the page was swapped, restore it into a fresh
   frame and re-insert it in the page cache. The freed swap block is
   recycled for later swap-outs. *)
let swap_in (sys : Types.system) (c : Types.cell) lid =
  match Hashtbl.find_opt c.Types.swap_table lid with
  | None -> None
  | Some (block, data) ->
    let psize = Flash.Config.page_size in
    let pf = Page_alloc.alloc sys c in
    let disk = Flash.Machine.disk sys.Types.machine c.Types.boss_node in
    Flash.Disk.read sys.Types.eng disk ~block:(Flash.Config.swap_base + block)
      ~bytes:psize;
    Kmem.write sys (Flash.Addr.addr_of_pfn pf.Types.pfn) data;
    Hashtbl.remove c.Types.swap_table lid;
    c.Types.swap_free_blocks <- block :: c.Types.swap_free_blocks;
    Pfdat.insert c lid pf;
    Types.bump c Count.ins;
    Some pf

(* Swap out every idle anonymous page of one process (the granularity Wax
   reasons about in Table 3.4). Returns the number of pages written. *)
let swap_out_process (sys : Types.system) (p : Types.process) =
  let c = sys.Types.cells.(p.Types.proc_cell) in
  (* Drop the process's own anon mappings so its pages become idle. *)
  let anon_vpages = ref [] in
  Hashtbl.iter
    (fun vpage (m : Types.mapping) ->
      match m.Types.map_lid.Types.tag with
      | Types.Anon_obj _ -> anon_vpages := (vpage, m) :: !anon_vpages
      | _ -> ())
    p.Types.mappings;
  List.iter
    (fun (vpage, (m : Types.mapping)) ->
      m.Types.map_pf.Types.refs <- max 0 (m.Types.map_pf.Types.refs - 1);
      Hashtbl.remove p.Types.mappings vpage)
    !anon_vpages;
  List.fold_left
    (fun acc (_, (m : Types.mapping)) ->
      if swap_out_page sys c m.Types.map_pf then acc + 1 else acc)
    0 !anon_vpages

let swapped_pages (c : Types.cell) = Hashtbl.length c.Types.swap_table
