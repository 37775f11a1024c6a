(** The shipped scenario set: [null-rpc] / [queued-rpc] (area [rpc]),
    [remote-read] / [pmake-sharing] (area [sharing]), one scenario per
    workload (area [workloads]), the [fuzz], [resilience], [traffic] and
    [scale] areas, and one scenario per measured result of the paper
    (area [paper], metrics carrying the paper's number). [register]
    declares them all into the {!Scenario} registry; idempotent, call
    before {!Sweep.run}. *)

val register : unit -> unit
