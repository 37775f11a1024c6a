(* Entry [i] of the heap is three ints of [keys]: [keys.(3i)] is its time
   as a key (see [key_of_time]), [keys.(3i+1)] its sequence key and
   [keys.(3i+2)] the slot of [vals] holding its payload. Payloads never
   move while the heap is sifted; only ints do, so a sift neither chases
   pointers nor pays the write barrier, and a node's four children sit in
   one or two cache lines. Free slots of [vals] are stacked in [free]. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable size : int;
}

(* [t - 2^62] maps [0, 2^63) onto OCaml's [int] range, preserving order:
   every simulated time (including the [Int64.max_int] of a partition
   that never heals) has an exact key. *)
let time_offset = 0x4000_0000_0000_0000L

let key_of_time t = Int64.to_int (Int64.sub t time_offset)

let time_of_key k = Int64.add (Int64.of_int k) time_offset

let create () = { keys = [||]; vals = [||]; free = [||]; nfree = 0; size = 0 }

let length h = h.size

let capacity h = Array.length h.vals

let is_empty h = h.size = 0

(* Move to [ncap] slots: the live entries take slots [0, size) in heap
   order and the rest are free. [filler] pads the payload array. *)
let resize h ncap filler =
  let keys = Array.make (3 * ncap) 0 and vals = Array.make ncap filler in
  for i = 0 to h.size - 1 do
    keys.(3 * i) <- h.keys.(3 * i);
    keys.((3 * i) + 1) <- h.keys.((3 * i) + 1);
    keys.((3 * i) + 2) <- i;
    vals.(i) <- h.vals.(h.keys.((3 * i) + 2))
  done;
  h.keys <- keys;
  h.vals <- vals;
  h.free <- Array.init ncap (fun j -> ncap - 1 - j);
  h.nfree <- ncap - h.size

(* Drop the backing arrays down to a small multiple of the live size so a
   long-lived engine does not pin the peak of its largest campaign. Only
   worth doing when the arrays are mostly slack; keeps at least 16 slots. *)
let shrink h =
  let cap = Array.length h.vals in
  if cap > 64 && h.size * 4 < cap then resize h (max 16 (2 * h.size)) h.vals.(0)

(* 4-ary layout: children of [i] are [4i+1 .. 4i+4]. Half the depth of a
   binary heap, and the four children share cache lines, which matters on
   the pop path (the hottest loop in the engine). Both sifts carry the
   moving entry [(t, s, slot)] in a hole instead of swapping it level by
   level. *)
let rec sift_up (keys : int array) i (t : int) (s : int) slot =
  let p = (i - 1) / 4 in
  let pt = Array.unsafe_get keys (3 * p) in
  if i > 0 && (t < pt || (t = pt && s < Array.unsafe_get keys ((3 * p) + 1)))
  then begin
    Array.unsafe_set keys (3 * i) pt;
    Array.unsafe_set keys ((3 * i) + 1) (Array.unsafe_get keys ((3 * p) + 1));
    Array.unsafe_set keys ((3 * i) + 2) (Array.unsafe_get keys ((3 * p) + 2));
    sift_up keys p t s slot
  end
  else begin
    Array.unsafe_set keys (3 * i) t;
    Array.unsafe_set keys ((3 * i) + 1) s;
    Array.unsafe_set keys ((3 * i) + 2) slot
  end

(* The entry moves below its smallest child, if that child is before it. *)
let rec sift_down (keys : int array) size i (t : int) (s : int) slot =
  let first = (4 * i) + 1 in
  let m = ref i and mt = ref t and ms = ref s in
  if first < size then begin
    m := first;
    mt := Array.unsafe_get keys (3 * first);
    ms := Array.unsafe_get keys ((3 * first) + 1);
    let last = if first + 3 < size then first + 3 else size - 1 in
    for c = first + 1 to last do
      let ct = Array.unsafe_get keys (3 * c) in
      if ct < !mt || (ct = !mt && Array.unsafe_get keys ((3 * c) + 1) < !ms)
      then begin
        m := c;
        mt := ct;
        ms := Array.unsafe_get keys ((3 * c) + 1)
      end
    done
  end;
  if !m <> i && (!mt < t || (!mt = t && !ms < s)) then begin
    Array.unsafe_set keys (3 * i) !mt;
    Array.unsafe_set keys ((3 * i) + 1) !ms;
    Array.unsafe_set keys ((3 * i) + 2) (Array.unsafe_get keys ((3 * !m) + 2));
    sift_down keys size !m t s slot
  end
  else begin
    Array.unsafe_set keys (3 * i) t;
    Array.unsafe_set keys ((3 * i) + 1) s;
    Array.unsafe_set keys ((3 * i) + 2) slot
  end

let push_key h ~key ~seq payload =
  let cap = Array.length h.vals in
  if h.size >= cap then resize h (max 16 (2 * cap)) payload;
  h.nfree <- h.nfree - 1;
  let slot = h.free.(h.nfree) in
  h.vals.(slot) <- payload;
  let i = h.size in
  h.size <- i + 1;
  sift_up h.keys i key seq slot

let check_nonempty h op = if h.size = 0 then invalid_arg ("Heap." ^ op)

let top h =
  check_nonempty h "top";
  h.vals.(h.keys.(2))

let top_key h =
  check_nonempty h "top_key";
  h.keys.(0)

let top_seq h =
  check_nonempty h "top_seq";
  h.keys.(1)

let top_time h = time_of_key (top_key h)

let drop_top h =
  check_nonempty h "drop_top";
  let keys = h.keys in
  h.free.(h.nfree) <- keys.(2);
  h.nfree <- h.nfree + 1;
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then
    sift_down keys n 0 keys.(3 * n) keys.((3 * n) + 1) keys.((3 * n) + 2);
  shrink h

(* Keep only the entries whose payload satisfies [keep] (called exactly
   once per entry, in heap order, so it may carry side effects such as
   marking the dropped entries dead), then rebuild the heap invariant
   bottom-up: O(n), versus O(n log n) for popping the survivors one by
   one. *)
let filter h keep =
  let keys = h.keys in
  let k = ref 0 in
  for i = 0 to h.size - 1 do
    let slot = keys.((3 * i) + 2) in
    if keep h.vals.(slot) then begin
      let j = !k in
      keys.(3 * j) <- keys.(3 * i);
      keys.((3 * j) + 1) <- keys.((3 * i) + 1);
      keys.((3 * j) + 2) <- slot;
      k := j + 1
    end
    else begin
      h.free.(h.nfree) <- slot;
      h.nfree <- h.nfree + 1
    end
  done;
  h.size <- !k;
  (* Heapify bottom-up from the last internal node. *)
  if h.size > 1 then
    for i = (h.size - 2) / 4 downto 0 do
      sift_down keys h.size i keys.(3 * i) keys.((3 * i) + 1)
        keys.((3 * i) + 2)
    done;
  shrink h
