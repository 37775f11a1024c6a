(** A set of processor numbers: the value of a firewall write-permission
    vector. A multi-word bit set, normalized so that equal sets are
    structurally equal ([=], [Hashtbl.hash] and [compare] all behave);
    machines of hundreds of processors are representable, unlike the
    single 64-bit word the 64-node prototype used. Values are
    immutable. *)

type t

val empty : t

val is_empty : t -> bool

val singleton : int -> t

val of_list : int list -> t

val mem : t -> int -> bool

val add : t -> int -> t

val remove : t -> int -> t

val union : t -> t -> t

val inter : t -> t -> t

(** [diff a b] is the processors in [a] but not [b]. *)
val diff : t -> t -> t

(** Do the two sets share any processor? (No intermediate allocation.) *)
val intersects : t -> t -> bool

val equal : t -> t -> bool

(** Compact hex rendering for traces and events. *)
val to_string : t -> string
