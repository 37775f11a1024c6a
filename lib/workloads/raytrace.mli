(** raytrace: rendering a teapot with 6 antialias rays per pixel
   (Table 7.1) — a parallel application whose workers read-share the scene
   built by the parent before the fork.

   The scene lives in the parent's anonymous memory, so every worker read
   is a copy-on-write tree search: on a multicell system, workers forked
   to other cells walk interior tree nodes on the parent's cell with the
   careful reference protocol and bind the pages with export/import — the
   exact path stressed by the paper's "during copy-on-write search" fault
   injections. Worker outputs mix in the scene words actually read, so a
   wild write to scene memory corrupts the output detectably. *)

type cfg = {
  workers : int;
  scene_pages : int;
  tile_pages : int;
  compute_ns : int64;
  build_ns : int64;
}
val default : cfg
val run :
  ?cfg:cfg ->
  Hive.Types.system -> Workload.result * Hive.Types.process
val verify :
  ?cfg:cfg ->
  Hive.Types.system -> (string * Workload.verify_outcome) list
