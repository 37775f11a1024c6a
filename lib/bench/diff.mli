(** The regression gate: compare a fresh sweep against the committed
    trajectory and fail past a threshold.

    Rows are matched by (scenario, dims); metrics by name. A metric whose
    value moved against its declared direction by more than [threshold]
    (relative, default {!default_threshold}) is a regression; movement the
    other way is an improvement (reported, never failing). Baseline rows
    absent from the fresh sweep (e.g. a [--quick] CI run over the reduced
    grid) are skipped with a note, as are fresh rows with no baseline yet. *)

type finding = {
  f_area : string;
  f_scenario : string;
  f_dims : Scenario.dims;
  f_metric : string;
  f_baseline : float;
  f_fresh : float;
  f_change_pct : float;  (** signed, relative to baseline *)
}

type verdict = {
  regressions : finding list;
  improvements : finding list;
  notes : string list;  (** unmatched rows/metrics *)
  compared : int;  (** gated metric comparisons performed *)
}

val default_threshold : float  (** 0.20 = 20% *)

val compare_reports :
  ?threshold:float ->
  baseline:Sweep.report list ->
  fresh:Sweep.report list ->
  unit ->
  verdict

(** Load both directories, compare, print every finding and a one-line
    summary; returns the exit code (0 clean, 1 regressions, 2 load
    error). *)
val run_dirs :
  ?threshold:float -> baseline_dir:string -> fresh_dir:string -> unit -> int
