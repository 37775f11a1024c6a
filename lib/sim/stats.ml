(* Streaming statistics: bounded-reservoir summaries, log-bucket latency
   histograms and declared event counters.

   Summaries keep exact count/sum/min/max and a fixed-size reservoir of
   samples for percentile estimation, so memory stays bounded however long
   a run gets. The sorted view of the reservoir is cached between [add]s,
   making repeated percentile queries cheap. *)

let reservoir_capacity = 4096

type summary = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  reservoir : float array; (* first [filled] slots are valid *)
  mutable filled : int;
  mutable sorted : float array option; (* cache, invalidated by add *)
  mutable rng : int; (* private LCG state for reservoir replacement *)
  keep_samples : bool;
}

let summary ?(keep_samples = true) () =
  {
    count = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
    reservoir = (if keep_samples then Array.make reservoir_capacity 0. else [||]);
    filled = 0;
    sorted = None;
    rng = 0x9e3779b9;
    keep_samples;
  }

(* Deterministic LCG (Numerical Recipes constants), masked to 62 bits. *)
let next_rng s =
  s.rng <- ((s.rng * 1664525) + 1013904223) land 0x3FFFFFFFFFFFFFF;
  s.rng

let add s x =
  s.count <- s.count + 1;
  s.sum <- s.sum +. x;
  if x < s.min_v then s.min_v <- x;
  if x > s.max_v then s.max_v <- x;
  if s.keep_samples then begin
    if s.filled < reservoir_capacity then begin
      s.reservoir.(s.filled) <- x;
      s.filled <- s.filled + 1;
      s.sorted <- None
    end
    else begin
      (* Vitter's algorithm R: keep each of the [count] samples with
         equal probability capacity/count. *)
      let j = next_rng s mod s.count in
      if j < reservoir_capacity then begin
        s.reservoir.(j) <- x;
        s.sorted <- None
      end
    end
  end

let add_ns s ns = add s (Int64.to_float ns)

let count s = s.count

let sum s = s.sum

let mean s = if s.count = 0 then 0. else s.sum /. float_of_int s.count

let min_value s = if s.count = 0 then 0. else s.min_v

let max_value s = if s.count = 0 then 0. else s.max_v

let sorted_samples s =
  match s.sorted with
  | Some arr -> arr
  | None ->
    let arr = Array.sub s.reservoir 0 s.filled in
    Array.sort compare arr;
    s.sorted <- Some arr;
    arr

let percentile s p =
  if not s.keep_samples then invalid_arg "Stats.percentile: samples not kept";
  let arr = sorted_samples s in
  let n = Array.length arr in
  if n = 0 then 0.
  else
    let idx = int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5) in
    arr.(max 0 (min (n - 1) idx))

(* ---------- Log-bucket latency histograms ----------

   Fixed power-of-two buckets (bucket i covers [2^i, 2^(i+1)) ns) give a
   compact, mergeable shape for export, while the embedded summary's
   reservoir provides accurate p50/p95/p99. *)

let hist_buckets_n = 64

type histogram = { hsummary : summary; buckets : int array }

let histogram () =
  { hsummary = summary (); buckets = Array.make hist_buckets_n 0 }

let bucket_of_ns ns =
  if Int64.compare ns 1L <= 0 then 0
  else
    let rec log2 acc v = if Int64.compare v 1L <= 0 then acc else log2 (acc + 1) (Int64.shift_right_logical v 1) in
    min (hist_buckets_n - 1) (log2 0 ns)

let hist_add h ns =
  add_ns h.hsummary ns;
  let i = bucket_of_ns ns in
  h.buckets.(i) <- h.buckets.(i) + 1

let hist_count h = h.hsummary.count

let hist_mean h = mean h.hsummary

let hist_min h = min_value h.hsummary

let hist_max h = max_value h.hsummary

let hist_percentile h p = percentile h.hsummary p

(* Non-empty buckets as (lo_ns, hi_ns, count), ascending. *)
let hist_nonempty h =
  let out = ref [] in
  for i = hist_buckets_n - 1 downto 0 do
    if h.buckets.(i) > 0 then
      let lo = if i = 0 then 0L else Int64.shift_left 1L i in
      let hi = Int64.shift_left 1L (i + 1) in
      out := (lo, hi, h.buckets.(i)) :: !out
  done;
  !out

(* ---------- Declared counters ----------

   Kernel event counters are declared once, at module initialisation,
   with a name, a unit and a line of documentation; a declaration returns
   a small integer id. A registry (one per cell, one per system) holds one
   slot per declared counter, so a bump is an array increment instead of a
   hash of the counter's name. Only the main domain may declare, and it
   does so before any simulation starts: the catalogue is never mutated
   while parallel campaigns run. *)

type counter_id = int

type declaration = { name : string; unit : string; doc : string }

let catalogue : declaration array ref = ref [||]

let ids : (string, counter_id) Hashtbl.t = Hashtbl.create 128

let declare ~name ~unit ~doc =
  if not (Domain.is_main_domain ()) then
    invalid_arg ("Stats.declare: " ^ name ^ " declared off the main domain");
  if Hashtbl.mem ids name then invalid_arg ("Stats.declare: duplicate " ^ name);
  let id = Array.length !catalogue in
  catalogue := Array.append !catalogue [| { name; unit; doc } |];
  Hashtbl.replace ids name id;
  id

let declared () =
  Array.to_list !catalogue |> List.map (fun d -> (d.name, d.unit, d.doc))

(* [touched] marks the counters bumped at least once (a [~by:0] bump
   included): [to_list] reports exactly those. *)
type registry = { counts : int array; touched : bool array }

let registry () =
  let n = Array.length !catalogue in
  { counts = Array.make n 0; touched = Array.make n false }

let bump ?(by = 1) r id =
  r.touched.(id) <- true;
  r.counts.(id) <- r.counts.(id) + by

let value r name =
  match Hashtbl.find_opt ids name with
  | Some id -> r.counts.(id)
  | None -> invalid_arg ("Stats.value: undeclared counter " ^ name)

let to_list r =
  let out = ref [] in
  Array.iteri
    (fun id t -> if t then out := (!catalogue.(id).name, r.counts.(id)) :: !out)
    r.touched;
  List.sort (fun (a, _) (b, _) -> compare a b) !out
