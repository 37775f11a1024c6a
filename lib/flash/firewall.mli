(** The FLASH firewall: a write-permission vector per 4 KB page of main
    memory, stored and checked by the coherence controller of the owning
    node (Section 4.2 of the paper). Permission vectors are processor
    sets ({!Procset.t}): the 64-node prototype packed them into one
    64-bit word; this model stores them sparsely (a per-node default set
    plus exceptions for pages with remote grants), so machines of
    hundreds of nodes are representable and whole-node scans cost
    O(outstanding grants), not O(pages).

    A write request to a page whose vector does not contain the writing
    processor fails with a bus error. Only the local processor can change
    the firewall bits for the memory of its node; attempts by remote
    processors raise {!Not_local_processor}. *)

exception Not_local_processor

type t

(** Raises [Invalid_argument] (via {!Config.validate}) on configurations
    past {!Config.max_nodes}. *)
val create : Config.t -> t

(** Combined permission set of a list of processors. *)
val proc_mask : int list -> Procset.t

(** The permission vector of a page. *)
val vector : t -> pfn:Addr.pfn -> Procset.t

(** Does [proc] hold write permission to [pfn]? *)
val allowed : t -> pfn:Addr.pfn -> proc:int -> bool

(** All of these raise {!Not_local_processor} unless [by] is the processor
    of the node owning [pfn]. *)

(** Reset every page of [node] to one permission set: the boot/reboot
    fast path (O(1), clears all per-page exceptions). Reported to the
    notify observer as a single change on the node's first page. *)
val set_node_default : t -> by:int -> node:int -> Procset.t -> unit

val grant : t -> by:int -> pfn:Addr.pfn -> proc:int -> unit

val revoke : t -> by:int -> pfn:Addr.pfn -> proc:int -> unit

(** Grant write permission to all processors of a cell at once (the Hive
    firewall-management policy grants per cell, not per processor). *)
val grant_many : t -> by:int -> pfn:Addr.pfn -> int list -> unit

(** Reset a page to its node's default set plus the local processor. *)
val reset : t -> by:int -> pfn:Addr.pfn -> unit

(** Number of this node's pages writable by at least one remote processor
    (the paper's Section 4.2 firewall statistic). Walks only the
    exception table. *)
val remote_writable_pages : t -> node:int -> int

(** Test hook. Every pfn (machine-wide) writable by [proc]. Costs a scan
    of every node's exception table; preemptive discard uses
    {!pages_writable_by_mask} instead. *)
val writable_by : t -> proc:int -> Addr.pfn list

(** [node]'s pfns whose permission vector intersects [mask], in ascending
    order. One pass over the node's exception table (plus a full-page
    sweep only if the node's default itself matches); used by preemptive
    discard with the combined mask of all dead processors. *)
val pages_writable_by_mask : t -> node:int -> mask:Procset.t -> Addr.pfn list

(** Install an observer invoked whenever a page's permission vector
    actually changes (grants, revokes, recovery mass-revocation); used by
    the observability layer to trace hardware-level firewall traffic. *)
val set_notify :
  t -> (pfn:Addr.pfn -> old_vec:Procset.t -> new_vec:Procset.t -> unit) -> unit
