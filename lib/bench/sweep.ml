(* Dimensional sweep driver: see the .mli. *)

module J = Sim.Json

type row = {
  r_scenario : string;
  r_dims : Scenario.dims;
  r_metrics : Scenario.metric list;
}

type report = { a_area : string; a_rows : row list }

let run ?areas ?(quick = false) ?(verbose = true) scenarios =
  let wanted area =
    match areas with None -> true | Some l -> List.mem area l
  in
  let by_area : (string, row list ref) Hashtbl.t = Hashtbl.create 8 in
  let area_order = ref [] in
  List.iter
    (fun (sc : Scenario.t) ->
      if wanted sc.Scenario.sc_area then begin
        let grid = if quick then sc.Scenario.sc_quick else sc.Scenario.sc_dims in
        List.iter
          (fun dims ->
            if verbose then
              Printf.printf "sweep: %-16s %s\n%!" sc.Scenario.sc_name
                (Scenario.dims_label dims);
            let metrics = sc.Scenario.sc_run dims in
            if verbose then
              List.iter
                (fun (m : Scenario.metric) ->
                  Printf.printf "    %-24s %s\n%!" m.Scenario.m_name
                    (J.float_repr m.Scenario.m_value))
                metrics;
            let row =
              { r_scenario = sc.Scenario.sc_name; r_dims = dims;
                r_metrics = metrics }
            in
            let bucket =
              match Hashtbl.find_opt by_area sc.Scenario.sc_area with
              | Some b -> b
              | None ->
                let b = ref [] in
                Hashtbl.replace by_area sc.Scenario.sc_area b;
                area_order := sc.Scenario.sc_area :: !area_order;
                b
            in
            bucket := row :: !bucket)
          grid
      end)
    scenarios;
  List.rev !area_order
  |> List.map (fun area ->
         { a_area = area; a_rows = List.rev !(Hashtbl.find by_area area) })
  |> List.sort (fun a b -> compare a.a_area b.a_area)

(* ---------- JSON ---------- *)

let direction_to_string = function
  | Scenario.Lower_better -> "lower"
  | Scenario.Higher_better -> "higher"
  | Scenario.Info -> "info"

let direction_of_string = function
  | "lower" -> Some Scenario.Lower_better
  | "higher" -> Some Scenario.Higher_better
  | "info" -> Some Scenario.Info
  | _ -> None

let dims_to_json (d : Scenario.dims) =
  J.Obj
    [
      ("workload", J.Str d.Scenario.workload);
      ("cells", J.Int (Int64.of_int d.Scenario.cells));
      ("nodes", J.Int (Int64.of_int d.Scenario.nodes));
      ("ws_pages", J.Int (Int64.of_int d.Scenario.ws_pages));
      ("link_ms", J.Int (Int64.of_int d.Scenario.link_ms));
      ("import_cache", J.Bool d.Scenario.import_cache);
      ("smp", J.Bool d.Scenario.smp);
      ("rate", J.Int (Int64.of_int d.Scenario.rate));
      ("zipf_pct", J.Int (Int64.of_int d.Scenario.zipf_pct));
      ("fault_ms", J.Int (Int64.of_int d.Scenario.fault_ms));
    ]

let row_to_json r =
  J.Obj
    [
      ("scenario", J.Str r.r_scenario);
      ("dims", dims_to_json r.r_dims);
      ( "metrics",
        J.Arr
          (List.map
             (fun (m : Scenario.metric) ->
               J.Obj
                 ([
                    ("name", J.Str m.Scenario.m_name);
                    ("value", J.Float m.Scenario.m_value);
                    ("better", J.Str (direction_to_string m.Scenario.m_dir));
                  ]
                 @
                 match m.Scenario.m_paper with
                 | Some p -> [ ("paper", J.Float p) ]
                 | None -> []))
             r.r_metrics) );
    ]

let report_to_json rep =
  J.Obj
    [
      ("schema", J.Int 1L);
      ("area", J.Str rep.a_area);
      ("rows", J.Arr (List.map row_to_json rep.a_rows));
    ]

let ( let* ) = Result.bind

let field name conv j =
  match J.member name j with
  | None -> Error (Printf.sprintf "sweep: missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "sweep: bad field %S" name))

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let dims_of_json j : (Scenario.dims, string) result =
  let* workload = field "workload" J.to_string_opt j in
  let* cells = field "cells" J.to_int_opt j in
  let* nodes = field "nodes" J.to_int_opt j in
  let* ws_pages = field "ws_pages" J.to_int_opt j in
  let* link_ms = field "link_ms" J.to_int_opt j in
  let* import_cache = field "import_cache" J.to_bool_opt j in
  let* smp = field "smp" J.to_bool_opt j in
  (* traffic dims default to 0 so baselines written before they existed
     still parse (0 = "not a traffic row", matching default_dims) *)
  let opt_int name =
    match J.member name j with
    | None -> Ok 0
    | Some v -> (
      match J.to_int_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "sweep: bad field %S" name))
  in
  let* rate = opt_int "rate" in
  let* zipf_pct = opt_int "zipf_pct" in
  let* fault_ms = opt_int "fault_ms" in
  Ok
    { Scenario.workload; cells; nodes; ws_pages; link_ms; import_cache; smp;
      rate; zipf_pct; fault_ms }

let metric_of_json j =
  let* name = field "name" J.to_string_opt j in
  let* value = field "value" J.to_float_opt j in
  let* better = field "better" J.to_string_opt j in
  let* paper =
    match J.member "paper" j with
    | None -> Ok None
    | Some _ -> Result.map Option.some (field "paper" J.to_float_opt j)
  in
  match direction_of_string better with
  | Some dir ->
    Ok { Scenario.m_name = name; m_value = value; m_dir = dir; m_paper = paper }
  | None -> Error (Printf.sprintf "sweep: unknown direction %S" better)

let row_of_json j =
  let* scenario = field "scenario" J.to_string_opt j in
  let* dims = field "dims" Option.some j in
  let* dims = dims_of_json dims in
  let* metrics = field "metrics" J.to_list_opt j in
  let* metrics = map_result metric_of_json metrics in
  Ok { r_scenario = scenario; r_dims = dims; r_metrics = metrics }

let report_of_json j =
  let* schema = field "schema" J.to_int_opt j in
  if schema <> 1 then
    Error (Printf.sprintf "sweep: unsupported schema %d" schema)
  else
    let* area = field "area" J.to_string_opt j in
    let* rows = field "rows" J.to_list_opt j in
    let* rows = map_result row_of_json rows in
    Ok { a_area = area; a_rows = rows }

(* ---------- files ---------- *)

let file_name ~area = Printf.sprintf "BENCH_%s.json" area

let write_dir ~dir reports =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun rep ->
      let path = Filename.concat dir (file_name ~area:rep.a_area) in
      let oc = open_out path in
      output_string oc (J.to_string ~pretty:true (report_to_json rep));
      output_char oc '\n';
      close_out oc;
      path)
    reports

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match J.of_string text with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      match report_of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok rep -> Ok rep))

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
    Array.to_list entries
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> map_result (fun f -> load_file (Filename.concat dir f))
    |> Result.map
         (List.sort (fun a b -> compare a.a_area b.a_area))

(* ---------- paper-vs-measured rendering ---------- *)

let paper_lines reports =
  let num = Printf.sprintf "%.6g" in
  List.concat_map
    (fun rep ->
      List.concat_map
        (fun r ->
          Printf.sprintf "=== %s [%s] ===" r.r_scenario
            (Scenario.dims_label r.r_dims)
          :: List.map
               (fun (m : Scenario.metric) ->
                 match m.Scenario.m_paper with
                 | Some p ->
                   Printf.sprintf "  %-36s paper %10s   measured %10s"
                     m.Scenario.m_name (num p) (num m.Scenario.m_value)
                 | None ->
                   Printf.sprintf "  %-36s %16s   measured %10s"
                     m.Scenario.m_name "" (num m.Scenario.m_value))
               r.r_metrics)
        rep.a_rows)
    reports
