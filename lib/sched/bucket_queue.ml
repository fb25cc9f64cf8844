(* Eiffel-style bucket queue (Saeed et al., NSDI 2019): one intrusive FIFO
   per rank over the bounded post-quantization rank space, indexed by a
   hierarchical find-first-set bitmap.  Enqueue, dequeue and worst-rank
   eviction are all O(1) modulo a constant number of 32-bit word scans.

   Layout:
   - [pages]: per-rank doubly-linked FIFO anchors into a slot pool
     sized [capacity_pkts], bit-packed as [(tail+1) lsl 21 lor (head+1)]
     ([0] = empty bucket) so an enqueue or dequeue touches a single
     cache line of anchor state — a random rank in a 16-bit space is a
     guaranteed cache miss, so one line instead of two is the
     difference between one stall and two.  The anchors sit in pages of
     [page_size] ranks, each allocated at the first insert into it: a
     port only ever sees a few rank ranges, and the full 16-bit space
     would cost 512 KB per port (a fabric's worth of it dominates a
     run's live heap).  An occupied bucket's page exists, so only
     [insert] checks.  Links live in flat int arrays ([nxt]/[prv]);
     [nxt] doubles as the free-list chain.
   - [levels]: occupancy bitmaps.  Level 0 has one bit per rank; each
     higher level has one bit per 32-bit word of the level below, up to
     a single root word.  Find-first/find-last descend from the root
     with branch-free de Bruijn scans (OCaml ints are 63-bit, so the
     64-bit multiply trick applies to 32-bit words without overflow;
     data-dependent branches would mispredict on every random rank).

   Semantics replicate Pifo_queue exactly (the conformance oracle's model):
   serve ascending (rank, uid); when full, an arrival ranked no better than
   the current worst is tail-dropped, otherwise the worst-ranked most
   recent arrival is evicted.  Within a rank bucket, arrival order equals
   uid order, so the bucket head is the (rank, uid) minimum and the tail of
   the last occupied bucket is the (rank, uid) maximum. *)

let word_bits = 32

(* Branch-free bit scans over one 32-bit word.  [x land (-x)] isolates
   the lowest set bit; the de Bruijn multiply maps each of the 32
   possible single-bit words to a distinct table index. *)
let debruijn32 = 0x077CB531

let ntz_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ntz32 x = Array.unsafe_get ntz_table ((((x land -x) * debruijn32) lsr 27) land 31)

let fls32 x =
  (* Smear the top bit downward, then isolate it and scan. *)
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let msb = x lxor (x lsr 1) in
  Array.unsafe_get ntz_table (((msb * debruijn32) lsr 27) land 31)

(* Anchor packing: a bucket's head and tail slot ids share one int as
   [(tail+1) lsl anchor_bits lor (head+1)], with [0] meaning empty.
   Slot ids must therefore fit in [anchor_bits] including the +1 bias. *)
let anchor_bits = 21
let anchor_mask = (1 lsl anchor_bits) - 1

(* Anchor pages: [page_size] ranks each; [[||]] is a page not yet
   allocated. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let create ?(name = "bucket-pifo") ?(rank_max = 65535) ~capacity_pkts () =
  if capacity_pkts <= 0 then invalid_arg "Bucket_queue.create: capacity <= 0";
  if capacity_pkts > anchor_mask - 1 then
    invalid_arg "Bucket_queue.create: capacity > 2^21 - 2 packets";
  if rank_max < 0 then invalid_arg "Bucket_queue.create: rank_max < 0";
  let nb = rank_max + 1 in
  let pages = Array.make ((nb + page_mask) lsr page_bits) [||] in
  let page b = Array.unsafe_get pages (b lsr page_bits) in
  (* Occupancy bitmaps, level 0 widest, root narrowest (single word). *)
  let levels =
    let rec build acc size =
      let words = (size + word_bits - 1) / word_bits in
      let acc = Array.make words 0 :: acc in
      if words = 1 then acc else build acc words
    in
    Array.of_list (List.rev (build [] nb))
  in
  let num_levels = Array.length levels in
  (* Bitmap indices derive from clamped ranks (and word indices thereof),
     so the unsafe accesses stay in bounds; the checks cost real time on
     the per-packet path. *)
  let rec set_bit lvl idx =
    let w = idx lsr 5 and b = idx land 31 in
    let words = Array.unsafe_get levels lvl in
    let old = Array.unsafe_get words w in
    Array.unsafe_set words w (old lor (1 lsl b));
    if old = 0 && lvl + 1 < num_levels then set_bit (lvl + 1) w
  in
  let rec clear_bit lvl idx =
    let w = idx lsr 5 and b = idx land 31 in
    let words = Array.unsafe_get levels lvl in
    let nw = Array.unsafe_get words w land lnot (1 lsl b) in
    Array.unsafe_set words w nw;
    if nw = 0 && lvl + 1 < num_levels then clear_bit (lvl + 1) w
  in
  (* Lowest / highest occupied rank; caller guarantees non-emptiness. *)
  let find_first () =
    let pos = ref 0 in
    for lvl = num_levels - 1 downto 0 do
      pos := (!pos lsl 5) lor ntz32 (Array.unsafe_get (Array.unsafe_get levels lvl) !pos)
    done;
    !pos
  in
  let find_last () =
    let pos = ref 0 in
    for lvl = num_levels - 1 downto 0 do
      pos := (!pos lsl 5) lor fls32 (Array.unsafe_get (Array.unsafe_get levels lvl) !pos)
    done;
    !pos
  in
  (* Slot pool.  [pool] is filled lazily with the first enqueued packet as
     the placeholder (allocating a dummy Packet.t would perturb the uid
     stream the tie-break contract depends on). *)
  let pool = ref [||] in
  let nxt = Array.make capacity_pkts (-1) in
  let prv = Array.make capacity_pkts (-1) in
  let free = ref 0 in
  for i = 0 to capacity_pkts - 2 do
    nxt.(i) <- i + 1
  done;
  let count = ref 0 in
  let bytes = ref 0 in
  let drops = ref 0 in
  let clamp r = if r < 0 then 0 else if r > rank_max then rank_max else r in
  let insert p =
    if Array.length !pool = 0 then pool := Array.make capacity_pkts p;
    let slot = !free in
    free := Array.unsafe_get nxt slot;
    !pool.(slot) <- p;
    Array.unsafe_set nxt slot (-1);
    let b = clamp p.Packet.rank in
    let anchors =
      let pg = page b in
      if Array.length pg > 0 then pg
      else begin
        let first = b land lnot page_mask in
        let pg = Array.make (min page_size (nb - first)) 0 in
        Array.unsafe_set pages (b lsr page_bits) pg;
        pg
      end
    in
    let i = b land page_mask in
    let a = Array.unsafe_get anchors i in
    if a = 0 then begin
      Array.unsafe_set prv slot (-1);
      Array.unsafe_set anchors i (((slot + 1) lsl anchor_bits) lor (slot + 1));
      set_bit 0 b
    end
    else begin
      let t = (a lsr anchor_bits) - 1 in
      Array.unsafe_set nxt t slot;
      Array.unsafe_set prv slot t;
      Array.unsafe_set anchors i (((slot + 1) lsl anchor_bits) lor (a land anchor_mask))
    end;
    incr count;
    bytes := !bytes + p.Packet.size
  in
  let release slot p =
    nxt.(slot) <- !free;
    free := slot;
    decr count;
    bytes := !bytes - p.Packet.size
  in
  let pop_head b =
    let anchors = page b and i = b land page_mask in
    let a = Array.unsafe_get anchors i in
    let slot = (a land anchor_mask) - 1 in
    let p = !pool.(slot) in
    let h' = Array.unsafe_get nxt slot in
    if h' = -1 then begin
      Array.unsafe_set anchors i 0;
      clear_bit 0 b
    end
    else begin
      Array.unsafe_set prv h' (-1);
      Array.unsafe_set anchors i ((a land lnot anchor_mask) lor (h' + 1))
    end;
    release slot p;
    p
  in
  let pop_tail b =
    let anchors = page b and i = b land page_mask in
    let a = Array.unsafe_get anchors i in
    let slot = (a lsr anchor_bits) - 1 in
    let p = !pool.(slot) in
    let t' = Array.unsafe_get prv slot in
    if t' = -1 then begin
      Array.unsafe_set anchors i 0;
      clear_bit 0 b
    end
    else begin
      Array.unsafe_set nxt t' (-1);
      Array.unsafe_set anchors i (((t' + 1) lsl anchor_bits) lor (a land anchor_mask))
    end;
    release slot p;
    p
  in
  let enqueue_drop p on_drop =
    if !count < capacity_pkts then insert p
    else begin
      let worst = find_last () in
      if clamp p.Packet.rank >= worst then begin
        incr drops;
        on_drop p
      end
      else begin
        let victim = pop_tail worst in
        insert p;
        incr drops;
        on_drop victim
      end
    end
  in
  let dequeue () = if !count = 0 then None else Some (pop_head (find_first ())) in
  let peek () =
    if !count = 0 then None
    else
      let b = find_first () in
      Some !pool.((Array.unsafe_get (page b) (b land page_mask) land anchor_mask) - 1)
  in
  Qdisc.make ~name ~enqueue_drop ~dequeue ~peek
    ~length:(fun () -> !count)
    ~bytes:(fun () -> !bytes)
    ~drops:(fun () -> !drops)
