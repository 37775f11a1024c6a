(* The pfdat page table, its import index, and the declared-counter
   registry.

   Close and exit find idle imports through the import index, so it must
   list exactly the extended pfdats bound in the table; the model test
   drives one cell's table and a plain polymorphic [Hashtbl] through the
   same operations and compares what they hold. *)

let mcfg = Flash.Config.small

(* Every pfn counts as the cell's own, so a [Home] pfdat is never
   extended and an [Import] always is. *)
let fresh_cell () =
  let c = Hive.Cell.make mcfg ~id:0 ~nodes:[ 0 ] in
  { c with
    Hive.Types.pool =
      { c.Hive.Types.pool with Hive.Types.own_lo = 0; own_hi = max_int } }

let import_role = Hive.Types.Import { home = 1; gen = 0; writable = false }

let file_lid ~ino page =
  { Hive.Types.tag = Hive.Types.File_obj { Hive.Types.home = 0; ino }; page }

let lid_of k =
  let tag =
    if k mod 5 = 0 then
      Hive.Types.Anon_obj { cow_home = k mod 3; node_id = k / 7 }
    else Hive.Types.File_obj { Hive.Types.home = k mod 4; ino = k / 64 }
  in
  { Hive.Types.tag; page = k }

type op =
  | Insert of int * bool (* key, extended *)
  | Fill of int * int (* first key, count: growth of the table *)
  | Remove of int (* index into the pfdats created so far *)
  | Reinsert of int (* a pfdat back under its own id, or a new one *)
  | Reset

let op_to_string = function
  | Insert (k, e) -> Printf.sprintf "Insert(%d,%b)" k e
  | Fill (k, n) -> Printf.sprintf "Fill(%d,%d)" k n
  | Remove i -> Printf.sprintf "Remove %d" i
  | Reinsert i -> Printf.sprintf "Reinsert %d" i
  | Reset -> "Reset"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (40, map2 (fun k e -> Insert (k, e)) (int_bound 6000) bool);
        (2, map2 (fun k n -> Fill (k, n)) (int_bound 6000) (int_range 500 2500));
        (25, map (fun i -> Remove i) (int_bound 100_000));
        (10, map (fun i -> Reinsert i) (int_bound 100_000));
        (1, return Reset);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 200) gen_op)

(* Replays [ops] on a cell and on the polymorphic model; after every op
   the index must list exactly the model's extended pfdats, and the typed
   table must bind exactly the model's pfdats. *)
let index_matches_model ops =
  let c = ref (fresh_cell ()) in
  let model : (Hive.Types.logical_id, Hive.Types.pfdat) Hashtbl.t =
    Hashtbl.create 1024
  in
  let made = ref [||] and nmade = ref 0 in
  let insert lid (pf : Hive.Types.pfdat) =
    Hashtbl.replace model lid pf;
    Hive.Pfdat.insert !c lid pf
  in
  let fresh k ~extended =
    let pf = Hive.Pfdat.make ~pfn:!nmade in
    if extended then pf.Hive.Types.role <- import_role;
    if !nmade = Array.length !made then
      made := Array.append !made (Array.make (max 16 !nmade) pf);
    !made.(!nmade) <- pf;
    incr nmade;
    insert (lid_of k) pf
  in
  let pick i = !made.(i mod !nmade) in
  let apply = function
    | Insert (k, extended) -> fresh k ~extended
    | Fill (k, n) ->
      for j = 0 to n - 1 do
        fresh (k + j) ~extended:(j mod 3 = 0)
      done
    | Remove i when !nmade > 0 ->
      (* A pfdat drops only its own binding: a displaced one removes
         nothing. *)
      let pf = pick i in
      Option.iter
        (fun lid ->
          match Hashtbl.find_opt model lid with
          | Some q when q == pf -> Hashtbl.remove model lid
          | Some _ | None -> ())
        pf.Hive.Types.lid;
      Hive.Pfdat.remove !c pf
    | Reinsert i when !nmade > 0 ->
      (* A pfdat with an id is bound under it or nowhere (displaced):
         putting it back replaces whatever holds that id in place. *)
      let pf = pick i in
      insert (Option.value pf.Hive.Types.lid ~default:(lid_of (6001 + i))) pf
    | Remove _ | Reinsert _ -> ()
    | Reset ->
      (* A reboot: a fresh cell, and nothing of the old table survives. *)
      Hashtbl.reset model;
      made := [||];
      nmade := 0;
      c := fresh_cell ()
  in
  (* A set of pfdats: pfns are distinct between resets. *)
  let sorted l =
    List.sort
      (fun (a : Hive.Types.pfdat) (b : Hive.Types.pfdat) ->
        Int.compare a.Hive.Types.pfn b.Hive.Types.pfn)
      l
  in
  let same a b = List.equal ( == ) (sorted a) (sorted b) in
  let expected keep =
    Hashtbl.fold
      (fun _ (pf : Hive.Types.pfdat) acc ->
        if Hive.Pfdat.extended !c pf && keep pf then pf :: acc else acc)
      model []
  in
  let table () =
    let acc = ref [] in
    Hive.Pfdat.iter_pages !c (fun pf -> acc := pf :: !acc);
    !acc
  in
  let even (pf : Hive.Types.pfdat) = pf.Hive.Types.pfn mod 2 = 0 in
  List.for_all
    (fun op ->
      apply op;
      same (expected (fun _ -> true)) (Hive.Pfdat.imports !c (fun _ -> true))
      && same (expected even) (Hive.Pfdat.imports !c even)
      && same (Hashtbl.fold (fun _ pf acc -> pf :: acc) model []) (table ()))
    ops

let qcheck_index_members =
  QCheck.Test.make ~count:25
    ~name:"import index returns extended pfdats bound in the table"
    arb_ops index_matches_model

(* ---------- invariant checker ---------- *)

(* One page of cell 0 imported by cell 1; [f] runs in a kernel thread. *)
let with_shared_sys f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 768 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
  let c0 = sys.Hive.Types.cells.(0) and c1 = sys.Hive.Types.cells.(1) in
  let thr =
    Sim.Engine.spawn eng ~name:"t" (fun () ->
        let lid = file_lid ~ino:99 0 in
        let pf = Hive.Page_alloc.alloc sys c0 in
        Hive.Pfdat.insert c0 lid pf;
        Hive.Share.export sys c0 pf ~client:1 ~writable:false;
        f sys c1
          (Hive.Share.import sys c1 ~pfn:pf.Hive.Types.pfn ~data_home:0 ~lid
             ~gen:0 ~writable:false))
  in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
  Alcotest.(check bool) "thread done" true thr.Sim.Engine.dead

let index_violations sys c =
  Hive.Invariants.check_page_index sys ~cells:[ c ]
  |> List.map Hive.Invariants.to_string

let test_checker_clean () =
  with_shared_sys (fun sys c1 imp ->
      Alcotest.(check bool) "import indexed" true
        (List.memq imp (Hive.Pfdat.imports c1 (fun _ -> true)));
      Alcotest.(check (list string)) "clean" [] (index_violations sys c1))

let test_checker_two_keys () =
  with_shared_sys (fun sys c1 imp ->
      Hive.Pfdat.insert c1 (file_lid ~ino:99 1) imp;
      Alcotest.(check bool) "two keys flagged" true (index_violations sys c1 <> []))

let test_checker_unindexed () =
  with_shared_sys (fun sys c1 _imp ->
      (* An own frame: a [Home] pfdat there is not extended. *)
      let pf = Hive.Pfdat.make ~pfn:(c1.Hive.Types.pool.Hive.Types.own_hi - 1) in
      Hive.Pfdat.insert c1 (file_lid ~ino:98 0) pf;
      (* Made an import behind the index's back. *)
      pf.Hive.Types.role <- import_role;
      Alcotest.(check bool) "missing member flagged" true
        (index_violations sys c1 <> []))

(* ---------- declared counters ---------- *)

let test_counter_name = "test.page_table.declared"

let test_counter =
  Sim.Stats.declare ~name:test_counter_name ~unit:"count" ~doc:"test counter"

let test_duplicate_declaration_raises () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument ("Stats.declare: duplicate " ^ test_counter_name))
    (fun () ->
      ignore
        (Sim.Stats.declare ~name:test_counter_name ~unit:"count" ~doc:"again"))

let test_declarations_documented () =
  List.iter
    (fun (name, unit, doc) ->
      if unit = "" || doc = "" then
        Alcotest.failf "counter %s declares no unit or no doc" name)
    (Sim.Stats.declared ());
  Alcotest.(check bool) "kernel counters declared" true
    (List.exists (fun (n, _, _) -> n = "share.imports") (Sim.Stats.declared ()))

let test_zero_bump_is_listed () =
  let r = Sim.Stats.registry () in
  Alcotest.(check (list (pair string int))) "untouched" [] (Sim.Stats.to_list r);
  Sim.Stats.bump ~by:0 r test_counter;
  Alcotest.(check (list (pair string int)))
    "a by:0 bump lists the counter" [ (test_counter_name, 0) ]
    (Sim.Stats.to_list r);
  Sim.Stats.bump r test_counter;
  Alcotest.(check int) "by name" 1 (Sim.Stats.value r test_counter_name);
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Stats.value: undeclared counter no.such.counter")
    (fun () -> ignore (Sim.Stats.value r "no.such.counter"))

(* The counter lists of a 4-cell pmake run must equal, name for name, the
   ones the string-keyed registry recorded: [workload-pmake-4.expected]
   is that run's metrics snapshot as the string-keyed registry wrote it
   (also diffed whole by the runtest rule). *)
let test_counters_match_string_registry () =
  let expected =
    let ic = open_in_bin "workload-pmake-4.expected" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Result.bind (Sim.Json.of_string s) Hive.Metrics.Snapshot.of_json with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let eng = Sim.Engine.create () in
  let sys = Hive.System.boot ~mcfg:Flash.Config.default ~ncells:4 ~wax:true eng in
  let spec = Workloads.Spec.of_name "pmake" in
  Workloads.Spec.setup sys spec;
  ignore (Workloads.Spec.run sys spec);
  let got = Hive.Metrics.capture sys in
  let counters (t : Hive.Metrics.Snapshot.t) =
    ("system", t.system_counters)
    :: List.map
         (fun (c : Hive.Metrics.Snapshot.cell) ->
           (Printf.sprintf "cell %d" c.id, c.counters))
         t.cells
  in
  Alcotest.(check (list (pair string (list (pair string int)))))
    "counter lists" (counters expected) (counters got)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_index_members;
    Alcotest.test_case "index checker: clean after an import" `Quick
      test_checker_clean;
    Alcotest.test_case "index checker: pfdat under two keys" `Quick
      test_checker_two_keys;
    Alcotest.test_case "index checker: extended pfdat not indexed" `Quick
      test_checker_unindexed;
    Alcotest.test_case "counters: duplicate declaration raises" `Quick
      test_duplicate_declaration_raises;
    Alcotest.test_case "counters: every declaration has a unit and a doc"
      `Quick test_declarations_documented;
    Alcotest.test_case "counters: by:0 bump is listed" `Quick
      test_zero_bump_is_listed;
    Alcotest.test_case "counters: pmake lists match the string registry"
      `Slow test_counters_match_string_registry;
  ]
