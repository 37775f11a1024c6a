(** The dimensional sweep driver: run every scenario of a list over its
    grid and emit one deterministic [BENCH_<area>.json] per area — the
    machine-readable perf trajectory CI diffs against (see {!Diff}). *)

type row = {
  r_scenario : string;
  r_dims : Scenario.dims;
  r_metrics : Scenario.metric list;
}

type report = { a_area : string; a_rows : row list }

(** Run the sweep over [scenarios]. [areas] restricts to the named areas
    (default: every area); [quick] runs each scenario's reduced grid.
    [verbose] (default true) prints each row's metrics as it completes.
    Reports are sorted by area; rows keep the order of [scenarios]. *)
val run :
  ?areas:string list ->
  ?quick:bool ->
  ?verbose:bool ->
  Scenario.t list ->
  report list

(** Test hook. [report_to_json] writes a metric's [paper] key only when
    the metric carries a paper reference. *)
val report_to_json : report -> Sim.Json.t

(** Test hook. *)
val report_of_json : Sim.Json.t -> (report, string) result

(** Write each report to [dir/BENCH_<area>.json] (pretty-printed, stable);
    returns the paths written. *)
val write_dir : dir:string -> report list -> string list

(** Load every [BENCH_*.json] in a directory, sorted by area. *)
val load_dir : string -> (report list, string) result

(** Paper-vs-measured rendering: one header line per row, then one line
    per metric; a metric with a paper reference shows both values. *)
val paper_lines : report list -> string list
