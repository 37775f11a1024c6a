(** ocean: the Splash-2 scientific simulation (130x130 grid, 900-second
   interval), characteristic of supercomputer use (Table 7.1).

   Each worker owns a chunk of the write-shared global data segment,
   placed on its own cell (chunk files homed per cell), and writes
   boundary rows into its neighbours' chunks every step — so on a
   multicell system a large fraction of the data segment is remotely
   writable through the firewall (the paper measured an average of 550
   remotely-writable pages per cell, versus 15 for pmake), and every
   boundary store is a firewall-checked remote write miss. *)

type cfg = {
  workers : int;
  chunk_pages : int;
  boundary_words : int;
  steps : int;
  step_compute_ns : int64;
  init_compute_ns : int64;
}
val default : cfg
val setup : Hive.Types.system -> cfg -> unit
val run :
  ?cfg:cfg ->
  Hive.Types.system -> Workload.result * Hive.Types.process
val verify :
  ?cfg:cfg ->
  Hive.Types.system -> (string * Workload.verify_outcome) list
