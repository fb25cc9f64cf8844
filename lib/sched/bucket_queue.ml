(* An exact PIFO as a min-max heap (Atkinson, Sack, Santoro and
   Strothotte, CACM 1986) over a pool of [capacity_pkts] packet slots.

   - [pool]: one cell per slot, written when a packet comes in and reset
     to the blank (the queue's first packet, kept in the extra last
     cell) when it leaves.  The heap itself moves ints only: a store
     into an [int array] needs no write barrier.
   - [h]: the heap, entry [e] at [h.(3e)], [h.(3e+1)], [h.(3e+2)]:
     clamped rank, arrival count, pool slot.  Entries order by
     (rank, arrival), which no two share.  An entry at an even depth (a
     min level) orders before all its descendants, one at an odd depth
     (a max level) after them.  [e]'s children are [2e+1] and [2e+2],
     its grandchildren [4e+3] to [4e+6].
   - [free]: a stack of the unused slots.

   The helpers are top-level functions of the heap array so that the
   compiler inlines the small ones; indices stay below the heap size,
   so the unsafe accesses stay in bounds.  The min and max paths are
   written out twice: one path taking the level kind as a flag ran
   10-15% slower. *)

let[@inline] rank (h : int array) e = Array.unsafe_get h (3 * e)
let[@inline] seq (h : int array) e = Array.unsafe_get h ((3 * e) + 1)
let[@inline] slot (h : int array) e = Array.unsafe_get h ((3 * e) + 2)

(* Entry [e] orders before the key [(r, s)]. *)
let[@inline] before h e r s =
  let re = rank h e in
  re < r || (re = r && seq h e < s)

(* Entry [a] orders before entry [b]. *)
let[@inline] precedes h a b = before h a (rank h b) (seq h b)

let[@inline] set (h : int array) e r s sl =
  let k = 3 * e in
  Array.unsafe_set h k r;
  Array.unsafe_set h (k + 1) s;
  Array.unsafe_set h (k + 2) sl

let[@inline] move h ~src ~dst = set h dst (rank h src) (seq h src) (slot h src)

(* [e]'s depth is floor(log2 (e + 1)), and the exponent field of the
   float [e + 1] is 1023 plus that: a min level has an odd exponent. *)
let[@inline] on_min_level e =
  let bits = Int64.bits_of_float (Float.of_int (e + 1)) in
  Int64.to_int (Int64.shift_right_logical bits 52) land 1 = 1

(* Place [(r, s, sl)] at the hole [e] or, while it orders before
   ([up_min]) or after ([up_max]) the grandparent, move the grandparent
   down into the hole and go on from there. *)
let rec up_min h e r s sl =
  let g = (e - 3) / 4 in
  if e >= 3 && not (before h g r s) then begin
    move h ~src:g ~dst:e;
    up_min h g r s sl
  end
  else set h e r s sl

let rec up_max h e r s sl =
  let g = (e - 3) / 4 in
  if e >= 3 && before h g r s then begin
    move h ~src:g ~dst:e;
    up_max h g r s sl
  end
  else set h e r s sl

(* Insert [(r, s, sl)] into a heap of [n] entries (the hole is [n]). *)
let push h n r s sl =
  if n = 0 then set h 0 r s sl
  else
    let p = (n - 1) / 2 in
    if on_min_level n then
      if before h p r s then begin
        move h ~src:p ~dst:n;
        up_max h p r s sl
      end
      else up_min h n r s sl
    else if before h p r s then up_max h n r s sl
    else begin
      move h ~src:p ~dst:n;
      up_min h p r s sl
    end

(* The first ([least], for [e] on a min level) or last ([greatest], on
   a max level) of [e]'s children and grandchildren in a heap of [n]
   entries; [2e+1 < n].  A child with children of its own orders after
   them ([least]) or before them ([greatest]), so when all four
   grandchildren exist the answer is one of them: a two-round
   tournament of three comparisons. *)
let[@inline] least h n e =
  let c = (2 * e) + 1 in
  let g = (2 * c) + 1 in
  if g + 3 < n then
    let a = if precedes h (g + 1) g then g + 1 else g in
    let b = if precedes h (g + 3) (g + 2) then g + 3 else g + 2 in
    if precedes h b a then b else a
  else
    let m = if c + 1 < n && precedes h (c + 1) c then c + 1 else c in
    let m = if g < n && precedes h g m then g else m in
    let m = if g + 1 < n && precedes h (g + 1) m then g + 1 else m in
    if g + 2 < n && precedes h (g + 2) m then g + 2 else m

let[@inline] greatest h n e =
  let c = (2 * e) + 1 in
  let g = (2 * c) + 1 in
  if g + 3 < n then
    let a = if precedes h g (g + 1) then g + 1 else g in
    let b = if precedes h (g + 2) (g + 3) then g + 3 else g + 2 in
    if precedes h a b then b else a
  else
    let m = if c + 1 < n && precedes h c (c + 1) then c + 1 else c in
    let m = if g < n && precedes h m g then g else m in
    let m = if g + 1 < n && precedes h m (g + 1) then g + 1 else m in
    if g + 2 < n && precedes h m (g + 2) then g + 2 else m

(* Sift [(r, s, sl)] down from the hole [e] on a min level ([down_min])
   or a max level ([down_max]) of a heap of [n] entries.  When the
   entry moved up is a grandchild, the carried key may belong on the
   level between: it then trades places with the grandchild's parent,
   whose key is carried on. *)
let rec down_min h n e r s sl =
  if (2 * e) + 1 >= n then set h e r s sl
  else
    let m = least h n e in
    if not (before h m r s) then set h e r s sl
    else begin
      move h ~src:m ~dst:e;
      if m <= (2 * e) + 2 then set h m r s sl
      else
        let p = (m - 1) / 2 in
        if before h p r s then begin
          let pr = rank h p and ps = seq h p and psl = slot h p in
          set h p r s sl;
          down_min h n m pr ps psl
        end
        else down_min h n m r s sl
    end

let rec down_max h n e r s sl =
  if (2 * e) + 1 >= n then set h e r s sl
  else
    let m = greatest h n e in
    if before h m r s then set h e r s sl
    else begin
      move h ~src:m ~dst:e;
      if m <= (2 * e) + 2 then set h m r s sl
      else
        let p = (m - 1) / 2 in
        if not (before h p r s) then begin
          let pr = rank h p and ps = seq h p and psl = slot h p in
          set h p r s sl;
          down_max h n m pr ps psl
        end
        else down_max h n m r s sl
    end

(* The index of the last entry of a non-empty heap of [n] entries. *)
let last_index h n =
  if n <= 2 then n - 1 else if precedes h 1 2 then 2 else 1

let create ?(name = "bucket-pifo") ?(rank_max = 65535) ~capacity_pkts () =
  if capacity_pkts <= 0 then invalid_arg "Bucket_queue.create: capacity <= 0";
  if capacity_pkts > (1 lsl 21) - 2 then
    invalid_arg "Bucket_queue.create: capacity > 2^21 - 2 packets";
  if rank_max < 0 then invalid_arg "Bucket_queue.create: rank_max < 0";
  let h = Array.make (3 * capacity_pkts) 0 in
  let n = ref 0 in
  (* [pool] is filled lazily with the first enqueued packet as the
     blank (allocating a dummy Packet.t would perturb the uid stream
     that traces and flight dumps name packets by). *)
  let pool = ref [||] in
  let free = Array.init capacity_pkts Fun.id in
  let arrivals = ref 0 in
  let bytes = ref 0 in
  let drops = ref 0 in
  let clamp r = if r < 0 then 0 else if r > rank_max then rank_max else r in
  let insert_at sl p =
    Array.unsafe_set !pool sl p;
    push h !n (clamp p.Packet.rank) !arrivals sl;
    incr arrivals;
    incr n;
    bytes := !bytes + p.Packet.size
  in
  (* Take the packet out of slot [sl], which has left the heap. *)
  let take sl =
    let pool = !pool in
    let p = Array.unsafe_get pool sl in
    Array.unsafe_set pool sl (Array.unsafe_get pool capacity_pkts);
    Array.unsafe_set free (capacity_pkts - !n - 1) sl;
    bytes := !bytes - p.Packet.size;
    p
  in
  let enqueue_drop p on_drop =
    if !n < capacity_pkts then begin
      if Array.length !pool = 0 then pool := Array.make (capacity_pkts + 1) p;
      insert_at (Array.unsafe_get free (capacity_pkts - !n - 1)) p
    end
    else begin
      let w = last_index h !n in
      if clamp p.Packet.rank >= rank h w then begin
        incr drops;
        on_drop p
      end
      else begin
        (* Evict the worst entry and hand its slot to the arrival. *)
        let sl = slot h w in
        let victim = Array.unsafe_get !pool sl in
        let last = !n - 1 in
        n := last;
        if w < last then down_max h last w (rank h last) (seq h last) (slot h last);
        bytes := !bytes - victim.Packet.size;
        insert_at sl p;
        incr drops;
        on_drop victim
      end
    end
  in
  let dequeue () =
    if !n = 0 then None
    else begin
      let sl = slot h 0 in
      let last = !n - 1 in
      n := last;
      if last > 0 then down_min h last 0 (rank h last) (seq h last) (slot h last);
      Some (take sl)
    end
  in
  let peek () = if !n = 0 then None else Some (Array.unsafe_get !pool (slot h 0)) in
  Qdisc.make ~name ~enqueue_drop ~dequeue ~peek
    ~length:(fun () -> !n)
    ~bytes:(fun () -> !bytes)
    ~drops:(fun () -> !drops)
