(** The shipped scenario set: [null-rpc] / [queued-rpc] (area [rpc]),
    [remote-read] / [pmake-sharing] (area [sharing]), one scenario per
    workload (area [workloads]), the [fuzz], [resilience], [traffic] and
    [scale] areas, and one scenario per measured result of the paper
    (area [paper], metrics carrying the paper's number). Every area has a
    committed [BENCH_<area>.json] at the repository root. *)

(** Every shipped scenario, in sweep order. Names are unique. *)
val all : Scenario.t list
