(* Metrics: typed snapshot of the run's instrumentation with a JSON
   round-trip. [capture] freezes the live counters/histograms into a
   plain-data [Snapshot.t]; everything downstream (print_summary, the
   benches, hive_sim --metrics-json, the sweep trajectory) consumes the
   snapshot instead of re-scraping kernel tables. JSON goes through
   [Sim.Json] (the simulator deliberately has no external deps). *)

module J = Sim.Json

let status_to_string = function
  | Types.Cell_up -> "up"
  | Types.Cell_recovering -> "recovering"
  | Types.Cell_down -> "down"

let status_of_string = function
  | "up" -> Some Types.Cell_up
  | "recovering" -> Some Types.Cell_recovering
  | "down" -> Some Types.Cell_down
  | _ -> None

module Snapshot = struct
  type hist = {
    count : int;
    mean_ns : float;
    min_ns : float;
    max_ns : float;
    p50_ns : float;
    p95_ns : float;
    p99_ns : float;
    p999_ns : float;
    buckets : (int64 * int64 * int) list;
  }

  type cell = {
    id : int;
    status : Types.cell_status;
    live_set : int list;
    counters : (string * int) list;
  }

  type sips = {
    sends : int;
    drops : int;
    dups : int;
    delays : int;
    stale_purged : int;
  }

  type t = {
    sim_time_ns : int64;
    rpc_client : (string * hist) list;
    rpc_server : (string * hist) list;
    ops : (string * hist) list;
    cells : cell list;
    system_counters : (string * int) list;
    sips : sips;
    sharing : (string * int) list;
    cache_hit_rate : float option;
    recovery_timeline : (string * int64) list;
  }

  let sharing_total t name =
    Option.value ~default:0 (List.assoc_opt name t.sharing)

  let client_hist t op = List.assoc_opt op t.rpc_client

  let op_hist t name = List.assoc_opt name t.ops

  (* ---------- to JSON ---------- *)

  let counters_to_json kvs =
    J.Obj (List.map (fun (k, v) -> (k, J.Int (Int64.of_int v))) kvs)

  let hist_to_json (h : hist) =
    J.Obj
      [
        ("count", J.Int (Int64.of_int h.count));
        ("mean_ns", J.Float h.mean_ns);
        ("min_ns", J.Float h.min_ns);
        ("max_ns", J.Float h.max_ns);
        ("p50_ns", J.Float h.p50_ns);
        ("p95_ns", J.Float h.p95_ns);
        ("p99_ns", J.Float h.p99_ns);
        ("p999_ns", J.Float h.p999_ns);
        ( "buckets",
          J.Arr
            (List.map
               (fun (lo, hi, n) ->
                 J.Arr [ J.Int lo; J.Int hi; J.Int (Int64.of_int n) ])
               h.buckets) );
      ]

  let cell_to_json (c : cell) =
    J.Obj
      [
        ("id", J.Int (Int64.of_int c.id));
        ("status", J.Str (status_to_string c.status));
        ("live_set", J.Arr (List.map (fun i -> J.Int (Int64.of_int i)) c.live_set));
        ("counters", counters_to_json c.counters);
      ]

  let to_json (t : t) =
    let hist_table hs = J.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) hs) in
    J.Obj
      ([
         ("sim_time_ns", J.Int t.sim_time_ns);
         ( "rpc",
           J.Obj
             [
               ("client", hist_table t.rpc_client);
               ("server", hist_table t.rpc_server);
             ] );
         ("ops", hist_table t.ops);
         ("cells", J.Arr (List.map cell_to_json t.cells));
         ("system_counters", counters_to_json t.system_counters);
         ( "sips",
           J.Obj
             [
               ("sends", J.Int (Int64.of_int t.sips.sends));
               ("drops", J.Int (Int64.of_int t.sips.drops));
               ("dups", J.Int (Int64.of_int t.sips.dups));
               ("delays", J.Int (Int64.of_int t.sips.delays));
               ("stale_purged", J.Int (Int64.of_int t.sips.stale_purged));
             ] );
         ("sharing", counters_to_json t.sharing);
       ]
      @ (match t.cache_hit_rate with
        | None -> [] (* no remote lookups: omit rather than emit 0/0 *)
        | Some r -> [ ("cache_hit_rate", J.Float r) ])
      @ [
          ( "recovery_timeline",
            J.Arr
              (List.map
                 (fun (phase, ns) ->
                   J.Obj [ ("phase", J.Str phase); ("ns", J.Int ns) ])
                 t.recovery_timeline) );
        ])

  let to_string t = J.to_string (to_json t)

  (* ---------- from JSON ---------- *)

  let ( let* ) = Result.bind

  let field name conv j =
    match J.member name j with
    | None -> Error (Printf.sprintf "metrics: missing field %S" name)
    | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "metrics: bad field %S" name))

  let map_result f l =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      (Ok []) l
    |> Result.map List.rev

  (* The fields of object [j] (called [name] in errors), each value
     parsed by [value_of key value]. *)
  let obj_of_json name value_of j =
    match J.to_obj_opt j with
    | None -> Error (Printf.sprintf "metrics: %s is not an object" name)
    | Some fields ->
      map_result
        (fun (k, v) ->
          let* x = value_of k v in
          Ok (k, x))
        fields

  let counters_of_json name =
    obj_of_json name (fun k v ->
        match J.to_int_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "metrics: counter %S not an int" k))

  let hist_of_json j =
    let* count = field "count" J.to_int_opt j in
    let* mean_ns = field "mean_ns" J.to_float_opt j in
    let* min_ns = field "min_ns" J.to_float_opt j in
    let* max_ns = field "max_ns" J.to_float_opt j in
    let* p50_ns = field "p50_ns" J.to_float_opt j in
    let* p95_ns = field "p95_ns" J.to_float_opt j in
    let* p99_ns = field "p99_ns" J.to_float_opt j in
    let* p999_ns = field "p999_ns" J.to_float_opt j in
    let* buckets = field "buckets" J.to_list_opt j in
    let* buckets =
      map_result
        (fun b ->
          match J.to_list_opt b with
          | Some [ lo; hi; n ] -> (
            match (J.to_int64_opt lo, J.to_int64_opt hi, J.to_int_opt n) with
            | Some lo, Some hi, Some n -> Ok (lo, hi, n)
            | _ -> Error "metrics: bad bucket entry")
          | _ -> Error "metrics: bad bucket shape")
        buckets
    in
    Ok { count; mean_ns; min_ns; max_ns; p50_ns; p95_ns; p99_ns; p999_ns; buckets }

  let hist_table_of_json name = obj_of_json name (fun _ -> hist_of_json)

  let cell_of_json j =
    let* id = field "id" J.to_int_opt j in
    let* status = field "status" J.to_string_opt j in
    let* status =
      match status_of_string status with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "metrics: unknown cell status %S" status)
    in
    let* live = field "live_set" J.to_list_opt j in
    let* live_set =
      map_result
        (fun v ->
          match J.to_int_opt v with
          | Some i -> Ok i
          | None -> Error "metrics: bad live_set entry")
        live
    in
    let* counters = field "counters" Option.some j in
    let* counters = counters_of_json "cell counters" counters in
    Ok { id; status; live_set; counters }

  let of_json j =
    let* sim_time_ns = field "sim_time_ns" J.to_int64_opt j in
    let* rpc = field "rpc" Option.some j in
    let* rpc_client = field "client" Option.some rpc in
    let* rpc_client = hist_table_of_json "rpc.client" rpc_client in
    let* rpc_server = field "server" Option.some rpc in
    let* rpc_server = hist_table_of_json "rpc.server" rpc_server in
    let* ops =
      (* absent in snapshots written before op-level instrumentation *)
      match J.member "ops" j with
      | None -> Ok []
      | Some v -> hist_table_of_json "ops" v
    in
    let* cells = field "cells" J.to_list_opt j in
    let* cells = map_result cell_of_json cells in
    let* system_counters = field "system_counters" Option.some j in
    let* system_counters =
      counters_of_json "system_counters" system_counters
    in
    let* sips = field "sips" Option.some j in
    let* sends = field "sends" J.to_int_opt sips in
    let* drops = field "drops" J.to_int_opt sips in
    let* dups = field "dups" J.to_int_opt sips in
    let* delays = field "delays" J.to_int_opt sips in
    let* stale_purged = field "stale_purged" J.to_int_opt sips in
    let* sharing = field "sharing" Option.some j in
    let* sharing = counters_of_json "sharing" sharing in
    let* cache_hit_rate =
      match J.member "cache_hit_rate" j with
      | None -> Ok None
      | Some v -> (
        match J.to_float_opt v with
        | Some f -> Ok (Some f)
        | None -> Error "metrics: bad cache_hit_rate")
    in
    let* timeline = field "recovery_timeline" J.to_list_opt j in
    let* recovery_timeline =
      map_result
        (fun e ->
          let* phase = field "phase" J.to_string_opt e in
          let* ns = field "ns" J.to_int64_opt e in
          Ok (phase, ns))
        timeline
    in
    Ok
      {
        sim_time_ns;
        rpc_client;
        rpc_server;
        ops;
        cells;
        system_counters;
        sips = { sends; drops; dups; delays; stale_purged };
        sharing;
        cache_hit_rate;
        recovery_timeline;
      }

  let of_string s =
    match J.of_string s with
    | Error e -> Error e
    | Ok j -> of_json j
end

(* ---------- capture ---------- *)

let hist_of_stats (h : Sim.Stats.histogram) : Snapshot.hist =
  let n = Sim.Stats.hist_count h in
  if n = 0 then
    {
      count = 0;
      mean_ns = 0.;
      min_ns = 0.;
      max_ns = 0.;
      p50_ns = 0.;
      p95_ns = 0.;
      p99_ns = 0.;
      p999_ns = 0.;
      buckets = [];
    }
  else
    let p q = Sim.Stats.hist_percentile h q in
    {
      count = n;
      mean_ns = Sim.Stats.hist_mean h;
      min_ns = Sim.Stats.hist_min h;
      max_ns = Sim.Stats.hist_max h;
      p50_ns = p 50.;
      p95_ns = p 95.;
      p99_ns = p 99.;
      p999_ns = p 99.9;
      buckets = Sim.Stats.hist_nonempty h;
    }

(* Histogram tables keyed by op name, sorted for stable output. *)
let sorted_hists tbl =
  Hashtbl.fold (fun k v acc -> (k, hist_of_stats v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* System-wide totals for the sharing protocol (summed over cells). *)
let sharing_counters =
  [ "share.imports"; "share.exports"; "share.releases"; "share.reimports";
    "share.cache_hits"; "share.cache_insertions"; "share.cache_evictions";
    "share.cache_invalidations"; "share.invalidates"; "share.release_lost";
    "share.release_races"; "fs.remote_locates"; "fs.readahead_pages";
    "fs.release_errors" ]

let sharing_totals (sys : Types.system) =
  List.map (fun name -> (name, System.counter_total sys name)) sharing_counters
  |> List.sort compare

(* The derived cache-hit rate: hits / (hits + locate RPCs) — the fraction
   of remote-page lookups that never left the cell. None when the run
   made no remote lookups at all (0/0 is not a rate). *)
let hit_rate_of_totals totals =
  let get n = Option.value ~default:0 (List.assoc_opt n totals) in
  let hits = get "share.cache_hits" in
  let lookups = hits + get "fs.remote_locates" in
  if lookups = 0 then None
  else Some (float_of_int hits /. float_of_int lookups)

let cache_hit_rate (sys : Types.system) =
  hit_rate_of_totals (sharing_totals sys)

let capture (sys : Types.system) : Snapshot.t =
  let sips = Flash.Machine.sips sys.Types.machine in
  let totals = sharing_totals sys in
  {
    sim_time_ns = Sim.Engine.now sys.Types.eng;
    rpc_client = sorted_hists sys.Types.rpc_client_ns;
    rpc_server = sorted_hists sys.Types.rpc_server_ns;
    ops = sorted_hists sys.Types.op_ns;
    cells =
      Array.to_list
        (Array.map
           (fun (c : Types.cell) : Snapshot.cell ->
             {
               id = c.Types.cell_id;
               status = c.Types.cstatus;
               live_set = List.sort compare c.Types.live_set;
               counters = List.sort compare (Sim.Stats.to_list c.Types.counters);
             })
           sys.Types.cells);
    system_counters = List.sort compare (Sim.Stats.to_list sys.Types.sys_counters);
    sips =
      {
        sends = Flash.Sips.send_count sips;
        drops = Flash.Sips.drop_count sips;
        dups = Flash.Sips.dup_count sips;
        delays = Flash.Sips.delay_count sips;
        stale_purged = Flash.Sips.stale_purged_count sips;
      };
    sharing = totals;
    cache_hit_rate = hit_rate_of_totals totals;
    recovery_timeline = sys.Types.recovery_timeline;
  }

let to_json (sys : Types.system) = Snapshot.to_string (capture sys)

let write_file (sys : Types.system) path =
  let oc = open_out path in
  output_string oc (to_json sys);
  output_char oc '\n';
  close_out oc

(* Human-readable end-of-run summary from a frozen snapshot. *)
let print_summary (s : Snapshot.t) =
  if s.Snapshot.rpc_client <> [] then begin
    Printf.printf "RPC client latency (us):\n";
    Printf.printf "  %-26s %8s %8s %8s %8s\n" "op" "count" "p50" "p95" "p99";
    List.iter
      (fun (name, (h : Snapshot.hist)) ->
        Printf.printf "  %-26s %8d %8.1f %8.1f %8.1f\n" name h.count
          (h.p50_ns /. 1e3) (h.p95_ns /. 1e3) (h.p99_ns /. 1e3))
      s.Snapshot.rpc_client
  end;
  if s.Snapshot.ops <> [] then begin
    Printf.printf "end-to-end op latency (us):\n";
    Printf.printf "  %-26s %8s %8s %8s %8s %8s\n" "op|phase" "count" "p50"
      "p95" "p99" "p99.9";
    List.iter
      (fun (name, (h : Snapshot.hist)) ->
        Printf.printf "  %-26s %8d %8.1f %8.1f %8.1f %8.1f\n" name h.count
          (h.p50_ns /. 1e3) (h.p95_ns /. 1e3) (h.p99_ns /. 1e3)
          (h.p999_ns /. 1e3))
      s.Snapshot.ops
  end;
  (let get = Snapshot.sharing_total s in
   if get "share.imports" > 0 then
     Printf.printf
       "sharing: %d imports, %d cache hits (hit rate %.2f), %d locates, %d \
        readahead pages, %d releases, %d invalidations, %d lost releases\n"
       (get "share.imports") (get "share.cache_hits")
       (Option.value ~default:0. s.Snapshot.cache_hit_rate)
       (get "fs.remote_locates") (get "fs.readahead_pages")
       (get "share.releases") (get "share.cache_invalidations")
       (get "share.release_lost"));
  if s.Snapshot.recovery_timeline <> [] then begin
    Printf.printf "recovery timeline:\n";
    List.iter
      (fun (phase, t) ->
        Printf.printf "  %10.3f ms  %s\n" (Int64.to_float t /. 1e6) phase)
      s.Snapshot.recovery_timeline
  end
