(** Common workload infrastructure: deterministic input generation, output
   verification against reference contents, and timing.

   Workload outputs are deterministic functions of their inputs so that
   the fault-injection experiments can detect corruption by comparing
   output files against reference copies, exactly as in Section 7.4. *)

type result = {
  name : string;
  elapsed_ns : int64;
  completed : bool;
}
val ns_to_s : int64 -> float

(** [run_driver sys ~name driver] runs [driver] as process [name] on
    cell 0 until it exits or 600 s of simulated time pass. The run
    completed if the driver exited with 0. Returns the result and the
    driver process. *)
val run_driver :
  Hive.Types.system ->
  name:string ->
  (Hive.Types.system -> Hive.Types.process -> unit) ->
  result * Hive.Types.process

(** Deterministic pseudo-content for a named input file, memoized per
    domain: the shared buffer is returned, and callers must not mutate
    it. *)
val synth_content : tag:string -> bytes:int -> bytes

val derive_output : input:bytes -> bytes:int -> bytes

(** Test hook. *)
val stable_content : Hive.Types.system -> string -> bytes option
type verify_outcome = Match | Data_loss | Corrupt | Missing
val verify_output :
  Hive.Types.system -> path:string -> reference:Bytes.t -> verify_outcome
val verify_outcome_to_string : verify_outcome -> string
