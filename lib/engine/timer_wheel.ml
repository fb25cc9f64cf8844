(* Timer-wheel event queue over a struct-of-arrays event pool.

   An event is an index into the pool: its time lives in [times] (a
   [Float.Array], so unboxed), its global push sequence in [seqs], its
   payload in [payloads], and [links] chains it either into its wheel
   slot's list or into the free list.  Pushing takes a free index (the
   pool doubles when none is left), [pop_before] returns an index, and
   [take] hands back the payload and frees the index.  So an event costs
   no entry record, list node, boxed time, option or tuple.  Links, seqs
   and times are ints and unboxed floats, so only the payload store and
   its clear in [take] pass through the write barrier; a pool of linked
   records would pay [caml_modify] on every link store instead.

   The wheel is a single level of 2^k tick slots over a near horizon.
   Virtual times quantize to integer ticks (floor of time / tick, monotone
   in time); each slot's list is sorted by (time, global push sequence).
   Events beyond the horizon go to the overflow heap, a binary min-heap of
   pool indices keyed the same way, and pops compare the wheel head
   against the overflow head, so the pop order is exactly (time, push
   order).

   Invariants:
   - [base] is the tick of the last popped event; every queued wheel event
     has tick in [base, base + num_slots), so slot [tick land mask] is a
     bijection and one slot never mixes ticks.
   - A tick is computed only for a time inside the horizon; every other
     time, +inf included, goes to the overflow heap.  Overflow events are
     never migrated; they win the head-to-head comparison when their
     (time, seq) comes first, which preserves global FIFO-among-equals. *)

let nil = -1

type 'a t = {
  tick : float;
  inv_tick : float; (* 1/tick: a multiply replaces a division per push *)
  num_slots : int;
  mask : int;
  heads : int array; (* slot -> first event of its list, [nil] if empty *)
  tails : int array;
  levels : int array array; (* hierarchical slot-occupancy bitmaps *)
  num_levels : int;
  mutable base : int; (* tick of the last popped event *)
  (* Earliest occupied wheel tick, or -1 when unknown.  [Sim]'s loop
     asks for the head before every pop; memoizing the head tick makes
     that one bitmap descent per slot instead of one per event (a slot
     never mixes ticks, so the cache stays valid until the head slot
     empties). *)
  mutable cached_tick : int;
  mutable wheel_count : int;
  mutable next_seq : int;
  empty : 'a; (* what a free slot's payload cell holds *)
  (* The pool, one cell per event, all five arrays of one capacity. *)
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable links : int array; (* next in the slot list, or next free *)
  mutable payloads : 'a array;
  mutable free : int;
  (* Overflow min-heap of pool indices; it never holds more than the pool. *)
  mutable heap : int array;
  mutable heap_size : int;
}

(* Branch-free bit scan: [x land (-x)] isolates the lowest set bit, and
   the de Bruijn multiply maps each of the 32 single-bit words to a
   distinct table index (OCaml ints are 63-bit, so the product of a
   32-bit word cannot overflow).  A branchy scan mispredicts on every
   random slot index. *)
let debruijn32 = 0x077CB531

let ntz_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ntz32 x = Array.unsafe_get ntz_table ((((x land -x) * debruijn32) lsr 27) land 31)

let initial_capacity = 64

let create ?(tick = 0x1p-24) ?(slots_pow2 = 12) ~empty () =
  if not (tick > 0.) then invalid_arg "Timer_wheel.create: tick <= 0";
  if slots_pow2 < 5 || slots_pow2 > 24 then
    invalid_arg "Timer_wheel.create: slots_pow2 outside [5, 24]";
  let num_slots = 1 lsl slots_pow2 in
  let levels =
    let rec build acc size =
      let words = (size + 31) / 32 in
      let acc = Array.make words 0 :: acc in
      if words = 1 then acc else build acc words
    in
    Array.of_list (List.rev (build [] num_slots))
  in
  let cap = initial_capacity in
  {
    tick;
    inv_tick = 1. /. tick;
    num_slots;
    mask = num_slots - 1;
    heads = Array.make num_slots nil;
    tails = Array.make num_slots nil;
    levels;
    num_levels = Array.length levels;
    base = 0;
    cached_tick = -1;
    wheel_count = 0;
    next_seq = 0;
    empty;
    times = Float.Array.make cap 0.;
    seqs = Array.make cap 0;
    links = Array.init cap (fun i -> if i + 1 < cap then i + 1 else nil);
    payloads = Array.make cap empty;
    free = 0;
    heap = Array.make cap nil;
    heap_size = 0;
  }

let size t = t.wheel_count + t.heap_size

(* Double the pool; the new cells become the free list. *)
let grow t =
  let cap = Array.length t.seqs in
  let ncap = 2 * cap in
  let times = Float.Array.make ncap 0. in
  Float.Array.blit t.times 0 times 0 cap;
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  let links = extend t.links nil in
  for i = cap to ncap - 2 do
    links.(i) <- i + 1
  done;
  t.times <- times;
  t.seqs <- extend t.seqs 0;
  t.links <- links;
  t.payloads <- extend t.payloads t.empty;
  t.heap <- extend t.heap nil;
  t.free <- cap

(* (time, seq) order.  Pool indices come from the free list or the
   wheel/heap structure, so they are always inside the pool: the unsafe
   accesses here and below cannot go out of bounds, and the checks were
   measurable on the per-event path. *)
let before t i j =
  let ti = Float.Array.unsafe_get t.times i
  and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

(* Bitmap indices are always a slot index masked to [0, num_slots) (or a
   word index derived from one). *)
let rec set_bit t lvl idx =
  let w = idx lsr 5 and b = idx land 31 in
  let words = Array.unsafe_get t.levels lvl in
  let old = Array.unsafe_get words w in
  Array.unsafe_set words w (old lor (1 lsl b));
  if old = 0 && lvl + 1 < t.num_levels then set_bit t (lvl + 1) w

let rec clear_bit t lvl idx =
  let w = idx lsr 5 and b = idx land 31 in
  let words = Array.unsafe_get t.levels lvl in
  let nw = Array.unsafe_get words w land lnot (1 lsl b) in
  Array.unsafe_set words w nw;
  if nw = 0 && lvl + 1 < t.num_levels then clear_bit t (lvl + 1) w

(* First occupied slot at index >= [from], or -1: climb levels masking off
   bits behind the query point, then descend to the leaf.  Top-level
   functions, so a scan allocates no closure. *)
let rec descend levels lvl idx =
  if lvl = 0 then idx
  else
    descend levels (lvl - 1)
      ((idx lsl 5) lor ntz32 (Array.unsafe_get (Array.unsafe_get levels (lvl - 1)) idx))

let rec ascend t lvl idx =
  if lvl >= t.num_levels then -1
  else
    let w = idx lsr 5 and b = idx land 31 in
    let words = Array.unsafe_get t.levels lvl in
    if w >= Array.length words then -1
    else
      let masked = Array.unsafe_get words w land ((-1) lsl b) in
      if masked <> 0 then descend t.levels lvl ((w lsl 5) lor ntz32 masked)
      else ascend t (lvl + 1) (w + 1)

(* Earliest occupied slot in tick order (circular from base), -1 if none. *)
let first_slot t =
  if t.wheel_count = 0 then -1
  else if t.cached_tick >= 0 then t.cached_tick land t.mask
  else begin
    let s_base = t.base land t.mask in
    let s = ascend t 0 s_base in
    let s = if s >= 0 then s else ascend t 0 0 in
    t.cached_tick <- t.base + ((s - s_base) land t.mask);
    s
  end

(* Overflow heap: sift with a hole, placing [i] once. *)
let rec sift_up t i j =
  if j = 0 then Array.unsafe_set t.heap 0 i
  else
    let p = (j - 1) / 2 in
    let pi = Array.unsafe_get t.heap p in
    if before t i pi then begin
      Array.unsafe_set t.heap j pi;
      sift_up t i p
    end
    else Array.unsafe_set t.heap j i

let rec sift_down t i j =
  let l = (2 * j) + 1 in
  if l >= t.heap_size then Array.unsafe_set t.heap j i
  else
    let c =
      if l + 1 < t.heap_size
         && before t (Array.unsafe_get t.heap (l + 1)) (Array.unsafe_get t.heap l)
      then l + 1
      else l
    in
    let ci = Array.unsafe_get t.heap c in
    if before t ci i then begin
      Array.unsafe_set t.heap j ci;
      sift_down t i c
    end
    else Array.unsafe_set t.heap j i

(* Tick arithmetic stays exact below this many ticks (2^53 ticks of the
   default tick is ~17 years of virtual time). *)
let max_tick = 0x1p53

(* Remove the overflow head; [base] moves to its tick when it has one. *)
let heap_pop t =
  let i = Array.unsafe_get t.heap 0 in
  let n = t.heap_size - 1 in
  t.heap_size <- n;
  if n > 0 then sift_down t (Array.unsafe_get t.heap n) 0;
  let x = Float.Array.unsafe_get t.times i *. t.inv_tick in
  if x < max_tick then begin
    let k = int_of_float x in
    if k > t.base then t.base <- k
  end;
  i

(* Sorted insert after [prev] (the rare out-of-order push): [i] has the
   largest seq, so it goes after every event whose time is <= its own. *)
let rec insert_after t s i time prev =
  let nx = Array.unsafe_get t.links prev in
  if nx <> nil && Float.Array.unsafe_get t.times nx <= time then
    insert_after t s i time nx
  else begin
    Array.unsafe_set t.links i nx;
    Array.unsafe_set t.links prev i;
    if nx = nil then Array.unsafe_set t.tails s i
  end

let push_wheel t i time k =
  let s = k land t.mask in
  let tl = Array.unsafe_get t.tails s in
  if tl = nil then begin
    Array.unsafe_set t.links i nil;
    Array.unsafe_set t.heads s i;
    Array.unsafe_set t.tails s i;
    set_bit t 0 s
  end
  else if Float.Array.unsafe_get t.times tl <= time then begin
    (* Common case: monotone time within a slot — append. *)
    Array.unsafe_set t.links i nil;
    Array.unsafe_set t.links tl i;
    Array.unsafe_set t.tails s i
  end
  else begin
    (* Rare: an earlier float time mapping to the same tick arrived
       later. *)
    let hd = Array.unsafe_get t.heads s in
    if time < Float.Array.unsafe_get t.times hd then begin
      Array.unsafe_set t.links i hd;
      Array.unsafe_set t.heads s i
    end
    else insert_after t s i time hd
  end;
  (* -1 means "unknown", not "none": after a pop empties the head slot
     the true minimum is some other occupied slot, so only a push into a
     verifiably empty wheel may claim the minimum outright. *)
  if t.wheel_count = 0 then t.cached_tick <- k
  else if t.cached_tick >= 0 && k < t.cached_tick then t.cached_tick <- k;
  t.wheel_count <- t.wheel_count + 1

let push t ~time payload =
  if not (time >= 0.) then
    invalid_arg "Timer_wheel.push: time is negative or nan";
  if t.free = nil then grow t;
  let i = t.free in
  t.free <- Array.unsafe_get t.links i;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload;
  (* Scaling by [inv_tick] is monotone in [time], so quantization can
     never invert cross-tick order (and is exact for power-of-two ticks).
     The comparison also sends +inf and every time too large for
     [int_of_float] to the heap. *)
  let x = time *. t.inv_tick in
  if x >= float_of_int (t.base + t.num_slots) then begin
    sift_up t i t.heap_size;
    t.heap_size <- t.heap_size + 1
  end
  else
    let k = int_of_float x in
    push_wheel t i time (if k < t.base then t.base else k)

let pop_wheel t s =
  let i = Array.unsafe_get t.heads s in
  let nx = Array.unsafe_get t.links i in
  Array.unsafe_set t.heads s nx;
  if nx = nil then begin
    Array.unsafe_set t.tails s nil;
    clear_bit t 0 s;
    t.cached_tick <- -1
  end;
  t.wheel_count <- t.wheel_count - 1;
  let s_base = t.base land t.mask in
  t.base <- t.base + ((s - s_base) land t.mask);
  i

(* One head lookup decides both "is it due?" and "remove it". *)
let pop_before t ~horizon =
  let s = first_slot t in
  if
    t.heap_size > 0
    && (s < 0 || before t (Array.unsafe_get t.heap 0) (Array.unsafe_get t.heads s))
  then
    if Float.Array.unsafe_get t.times (Array.unsafe_get t.heap 0) <= horizon
    then heap_pop t
    else nil
  else if s >= 0 && Float.Array.unsafe_get t.times (Array.unsafe_get t.heads s) <= horizon
  then pop_wheel t s
  else nil

let time t i = Float.Array.get t.times i

let take t i =
  let payload = t.payloads.(i) in
  t.payloads.(i) <- t.empty;
  t.links.(i) <- t.free;
  t.free <- i;
  payload
