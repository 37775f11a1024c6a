(** The global physical address space.

    Each node owns a contiguous range of physical addresses (Figure 3.1 of
    the paper); page frame numbers (pfn) are global and map to a node by
    division. *)

type t = int

type pfn = int

val pfn_of_addr : t -> pfn

val addr_of_pfn : pfn -> t

val node_of_pfn : Config.t -> pfn -> int

val node_of_addr : Config.t -> t -> int

val first_pfn_of_node : Config.t -> int -> pfn

(** Index of a page within its node's memory. *)
val local_index : Config.t -> pfn -> int

val valid : Config.t -> t -> bool

val aligned : t -> int -> bool
