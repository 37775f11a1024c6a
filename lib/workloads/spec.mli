(** One workload with its configuration: how the fault runners, the
    bench rows and the CLI name, set up, run and verify a workload. *)

type t =
  | Pmake of Pmake.cfg
  | Ocean of Ocean.cfg
  | Raytrace of Raytrace.cfg
  | Server of Server.cfg

val name : t -> string

(** The default configuration of ["pmake"], ["ocean"] or ["raytrace"];
    raises [Invalid_argument] on any other name. *)
val of_name : string -> t

(** Write the input files (none for raytrace and server, whose drivers
    build their own). *)
val setup : Hive.Types.system -> t -> unit

val run : Hive.Types.system -> t -> Workload.result

(** Every output file against its reference; server has none (its
    correctness is [completed]). *)
val verify : Hive.Types.system -> t -> (string * Workload.verify_outcome) list
