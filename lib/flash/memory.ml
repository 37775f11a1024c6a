type error_cause = Node_failed | Cutoff | Firewall_denied | Invalid_address

exception Bus_error of { addr : Addr.t; cause : error_cause }

(* Node memory is page-granular and lazily allocated: a slot holds
   [None] until the first write lands on that page, and reads of
   never-written pages serve zeros. Booting a node is then O(pages) slot
   initialization instead of zeroing tens of megabytes of backing store
   — which dominated fuzz-campaign boot time — and a machine only ever
   holds its working set. *)
type node_mem = {
  pages : Bytes.t option array;
  mutable accessible : bool; (* false once failed *)
  mutable cutoff : bool; (* memory cutoff: remote accesses refused *)
}

type t = {
  cfg : Config.t;
  firewall : Firewall.t;
  nodes : node_mem array;
  mutable reads : int;
  mutable writes : int;
  remote_write_miss_ns : Sim.Stats.summary;
  mutable wild_writes : int;
}

let create cfg =
  {
    cfg;
    firewall = Firewall.create cfg;
    nodes =
      Array.init cfg.Config.nodes (fun _ ->
          {
            pages = Array.make cfg.Config.mem_pages_per_node None;
            accessible = true;
            cutoff = false;
          });
    reads = 0;
    writes = 0;
    remote_write_miss_ns = Sim.Stats.summary ~keep_samples:false ();
    wild_writes = 0;
  }

(* Gather [len] bytes starting at node-local offset [off] into [dst] at
   [dst_off]; unallocated pages read as zeros. *)
let copy_out_into (nm : node_mem) ~off len dst dst_off =
  let psize = Config.page_size in
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let page = o / psize and inpage = o mod psize in
    let n = min (len - !pos) (psize - inpage) in
    (match nm.pages.(page) with
    | Some b -> Bytes.blit b inpage dst (dst_off + !pos) n
    | None -> Bytes.fill dst (dst_off + !pos) n '\000');
    pos := !pos + n
  done

let copy_out nm ~off len =
  let dst = Bytes.create len in
  copy_out_into nm ~off len dst 0;
  dst

let page_for_write (nm : node_mem) page =
  match nm.pages.(page) with
  | Some b -> b
  | None ->
    let b = Bytes.make Config.page_size '\000' in
    nm.pages.(page) <- Some b;
    b

(* Scatter [len] bytes of [src] from [src_off] to node-local offset
   [off], allocating pages on first touch. *)
let copy_in (nm : node_mem) ~off src src_off len =
  let psize = Config.page_size in
  let pos = ref 0 in
  while !pos < len do
    let o = off + !pos in
    let page = o / psize and inpage = o mod psize in
    let n = min (len - !pos) (psize - inpage) in
    Bytes.blit src (src_off + !pos) (page_for_write nm page) inpage n;
    pos := !pos + n
  done

let firewall t = t.firewall

let cfg t = t.cfg

let fail_node t node = t.nodes.(node).accessible <- false

let cutoff_node t node = t.nodes.(node).cutoff <- true

let restore_node t node =
  let nm = t.nodes.(node) in
  nm.accessible <- true;
  nm.cutoff <- false;
  (* Memory content is lost on failure: drop the pages (freeing the old
     working set) rather than zeroing them in place. *)
  Array.fill nm.pages 0 (Array.length nm.pages) None

let node_accessible t node = t.nodes.(node).accessible

let bounds_check t addr len =
  if
    len < 0 || addr < 0
    || addr + len > Config.total_pages t.cfg * Config.page_size
  then raise (Bus_error { addr; cause = Invalid_address })

let target t ~by addr len =
  bounds_check t addr len;
  let node = Addr.node_of_addr t.cfg addr in
  let nm = t.nodes.(node) in
  if not nm.accessible then raise (Bus_error { addr; cause = Node_failed });
  if nm.cutoff && node <> by then raise (Bus_error { addr; cause = Cutoff });
  (node, nm)

(* Latency of an access that misses to memory: one miss per cache line
   touched. Reads and writes share the model; writes to remote pages add
   the firewall ownership-request check. *)
let access_cost t ~by ~node ~write bytes =
  let lines = Config.lines_for (max 1 bytes) in
  let base = Int64.mul (Int64.of_int lines) Config.mem_ns in
  if write && t.cfg.Config.firewall_enabled then begin
    let check =
      Int64.mul (Int64.of_int lines) Config.firewall_check_ns
    in
    let cost = Int64.add base check in
    if node <> by then
      Sim.Stats.add t.remote_write_miss_ns
        (Int64.to_float (Int64.div cost (Int64.of_int lines)));
    cost
  end
  else begin
    if write && node <> by then
      Sim.Stats.add t.remote_write_miss_ns
        (Int64.to_float Config.mem_ns);
    base
  end

(* Shared prologue of every timed read: liveness checks, counter, line
   latency, post-delay liveness re-check (the node may have died
   mid-access). Returns the node memory and node-local offset. *)
let read_prologue eng t ~by addr len =
  let node, nm = target t ~by addr len in
  t.reads <- t.reads + 1;
  Sim.Engine.delay (access_cost t ~by ~node ~write:false len);
  if not nm.accessible then raise (Bus_error { addr; cause = Node_failed });
  ignore eng;
  (nm, addr - node * Config.mem_bytes_per_node t.cfg)

let read_into eng t ~by addr len dst dst_off =
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Memory.read_into";
  let nm, off = read_prologue eng t ~by addr len in
  copy_out_into nm ~off len dst dst_off

let read eng t ~by addr len =
  (* A negative [len] is the prologue's [Invalid_address] bus error. *)
  let dst = Bytes.create (max 0 len) in
  read_into eng t ~by addr len dst 0;
  dst

(* Cached read: the line is expected hot in the local cache (kernel
   structures the owner touches constantly); charges L2-hit latency but
   obeys the same fault model. *)
let cached_prologue eng t ~by addr len =
  let node, nm = target t ~by addr len in
  t.reads <- t.reads + 1;
  let lines = Config.lines_for (max 1 len) in
  Sim.Engine.delay (Int64.mul (Int64.of_int lines) Config.l2_hit_ns);
  if not nm.accessible then raise (Bus_error { addr; cause = Node_failed });
  ignore eng;
  (nm, addr - node * Config.mem_bytes_per_node t.cfg)

let read_cached eng t ~by addr len =
  let nm, off = cached_prologue eng t ~by addr len in
  copy_out nm ~off len

(* Word-sized accessors skip the intermediate buffer when the word sits
   inside one page (always, for the aligned kernel words on the hot
   clock-tick / kmem / careful-reference paths); latency and fault model
   are identical to the buffer path. *)
let get_i64 (nm : node_mem) ~off =
  let psize = Config.page_size in
  if (off mod psize) + 8 <= psize then
    match nm.pages.(off / psize) with
    | Some b -> Bytes.get_int64_le b (off mod psize)
    | None -> 0L
  else Bytes.get_int64_le (copy_out nm ~off 8) 0

let read_i64 eng t ~by addr =
  let nm, off = read_prologue eng t ~by addr 8 in
  get_i64 nm ~off

let read_cached_i64 eng t ~by addr =
  let nm, off = cached_prologue eng t ~by addr 8 in
  get_i64 nm ~off

(* The coherence controller checks the firewall on each request for
   cache-line ownership; a write to a page whose bit is not set for the
   writing processor fails with a bus error. *)
let check_firewall t ~by addr len =
  if t.cfg.Config.firewall_enabled then begin
    let first = Addr.pfn_of_addr addr in
    let last = Addr.pfn_of_addr (addr + max 0 (len - 1)) in
    for pfn = first to last do
      if not (Firewall.allowed t.firewall ~pfn ~proc:by) then
        raise (Bus_error { addr; cause = Firewall_denied })
    done
  end

let write_prologue eng t ~by addr len =
  let node, nm = target t ~by addr len in
  check_firewall t ~by addr len;
  t.writes <- t.writes + 1;
  Sim.Engine.delay (access_cost t ~by ~node ~write:true len);
  if not nm.accessible then raise (Bus_error { addr; cause = Node_failed });
  ignore eng;
  (nm, addr - node * Config.mem_bytes_per_node t.cfg)

let write_sub eng t ~by addr src src_off len =
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Memory.write_sub";
  let nm, off = write_prologue eng t ~by addr len in
  copy_in nm ~off src src_off len

let write eng t ~by addr bytes =
  write_sub eng t ~by addr bytes 0 (Bytes.length bytes)

let write_i64 eng t ~by addr v =
  let nm, off = write_prologue eng t ~by addr 8 in
  let psize = Config.page_size in
  if (off mod psize) + 8 <= psize then
    Bytes.set_int64_le (page_for_write nm (off / psize)) (off mod psize) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    copy_in nm ~off b 0 8
  end

(* Out-of-band access used by fault injection and test assertions: no
   latency, no firewall, no liveness checks. A wild write issued through
   [poke_wild] still honours the firewall (that is the point of the
   hardware) but bypasses the latency model. *)
let peek t addr len =
  bounds_check t addr len;
  let node = Addr.node_of_addr t.cfg addr in
  copy_out t.nodes.(node)
    ~off:(addr - node * Config.mem_bytes_per_node t.cfg)
    len

let peek_i64 t addr =
  bounds_check t addr 8;
  let node = Addr.node_of_addr t.cfg addr in
  get_i64 t.nodes.(node)
    ~off:(addr - node * Config.mem_bytes_per_node t.cfg)

let poke t addr bytes =
  bounds_check t addr (Bytes.length bytes);
  let node = Addr.node_of_addr t.cfg addr in
  copy_in t.nodes.(node)
    ~off:(addr - node * Config.mem_bytes_per_node t.cfg)
    bytes 0 (Bytes.length bytes)

let poke_wild t ~by addr bytes =
  let len = Bytes.length bytes in
  bounds_check t addr len;
  check_firewall t ~by addr len;
  t.wild_writes <- t.wild_writes + 1;
  poke t addr bytes

let stats t =
  (t.reads, t.writes, t.wild_writes)

let remote_write_miss_avg_ns t = Sim.Stats.mean t.remote_write_miss_ns
