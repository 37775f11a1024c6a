(** pmake: parallel compilation of 11 files of GnuChess 3.1, four at a time
   (Table 7.1) — the paper's compute-server workload.

   Each compile job execs the shared compiler binary, searches include
   directories, reads its source, and pipelines through preprocessor /
   compiler / assembler stages with intermediate files in /tmp — whose
   data home is cell 0, making one cell the file server for compiler
   temporaries exactly as in Section 4.2 (the cell serving /tmp showed the
   peak count of remotely-writable pages). Outputs are deterministic
   functions of the inputs so fault-injection runs can detect corruption. *)

type cfg = {
  files : int;
  jobs : int;
  src_bytes : int;
  hdr_bytes : int;
  cc_bytes : int;
  intermediate_bytes : int;
  obj_bytes : int;
  anon_pages : int;
  include_searches : int;
  cpp_ns : int64;
  cc1_ns : int64;
  as_ns : int64;
  link_ns : int64;
}
val default : cfg
val obj_path : int -> string
val binary_path : string
val setup : Hive.Types.system -> cfg -> unit
val run :
  ?cfg:cfg ->
  Hive.Types.system -> Workload.result * Hive.Types.process
val verify :
  ?cfg:cfg ->
  Hive.Types.system -> (string * Workload.verify_outcome) list
