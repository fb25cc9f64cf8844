(* Layer spans recorded from the benchmark's own code, around calls into
   each module's public functions.

   Per-hop layers are sampled: a call is timed when it is drawn 1-in-
   [sample_every] or when it runs inside an already-timed span (so a
   timed parent always has its children timed and its self time is exact).
   Every call is counted; a layer's total cost is estimated as the mean
   self time of its timed calls times its call count.  Self time is the
   span's duration minus the time covered by its timed children.

   Top-level phase spans ([phase]) are always timed and do not force their
   children to be timed, so a whole simulation run can be one span without
   timing every hop inside it.

   Spans of one sampled packet-hop (a root hop span and everything nested
   in it) share an id.  Spans are kept in memory, up to [capacity], and
   written out at the end as Chrome trace-event JSON. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sample_every = 16

type layer = {
  name : string;
  mutable calls : int;
  mutable timed : int;
  mutable self_ns : int;
}

let layer name = { name; calls = 0; timed = 0; self_ns = 0 }

(* Mean self time of a timed call, and the estimated total over all
   calls. *)
let ns_per_call l =
  if l.timed = 0 then 0. else float_of_int l.self_ns /. float_of_int l.timed

let total_s l = ns_per_call l *. float_of_int l.calls *. 1e-9

let reset l =
  l.calls <- 0;
  l.timed <- 0;
  l.self_ns <- 0

(* xorshift64: cheap, deterministic, and free of the aliasing a plain
   modulo counter would have with periodic call patterns. *)
let rng = ref 0x2545F4914F6CDD1D

let drawn () =
  let x = !rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  rng := x;
  x land (sample_every - 1) = 0

let capacity = 60_000

let s_name = Array.make capacity ""

let s_t0 = Array.make capacity 0

let s_t1 = Array.make capacity 0

let s_parent = Array.make capacity (-1)

let s_id = Array.make capacity 0

let n_spans = ref 0

let depth = ref 0

let child_acc = ref 0

let cur_span = ref (-1)

let cur_id = ref 0

let next_id = ref 0

let alloc_span () =
  if !n_spans < capacity then begin
    let i = !n_spans in
    incr n_spans;
    i
  end
  else -1

let store i name t0 t1 parent id =
  if i >= 0 then begin
    s_name.(i) <- name;
    s_t0.(i) <- t0;
    s_t1.(i) <- t1;
    s_parent.(i) <- parent;
    s_id.(i) <- id
  end

(* Wrap a per-hop function: count every call, time the sampled ones. *)
let wrap l f x =
  l.calls <- l.calls + 1;
  if !depth > 0 || drawn () then begin
    let parent = !cur_span in
    let idx = alloc_span () in
    let outer_id = !cur_id in
    if !depth = 0 then begin
      incr next_id;
      cur_id := !next_id
    end;
    cur_span := idx;
    let acc0 = !child_acc in
    incr depth;
    let t0 = now_ns () in
    f x;
    let t1 = now_ns () in
    decr depth;
    let dur = t1 - t0 in
    l.timed <- l.timed + 1;
    l.self_ns <- l.self_ns + dur - (!child_acc - acc0);
    child_acc := acc0 + dur;
    cur_span := parent;
    store idx l.name t0 t1 parent !cur_id;
    cur_id := outer_id
  end
  else f x

(* An always-timed phase span (set-up steps, a whole [Sim.run], one control
   request).  Returns the thunk's value; the layer accumulates the
   phase's full duration. *)
let phase l f =
  let parent = !cur_span in
  let idx = alloc_span () in
  incr next_id;
  let id = !next_id in
  cur_span := idx;
  let t0 = now_ns () in
  let v = Fun.protect ~finally:(fun () -> cur_span := parent) f in
  let t1 = now_ns () in
  l.calls <- l.calls + 1;
  l.timed <- l.timed + 1;
  l.self_ns <- l.self_ns + (t1 - t0);
  store idx l.name t0 t1 parent id;
  v

(* Time [f] [n] times as phase spans; the per-call milliseconds. *)
let repeat_ms l n f =
  List.init n (fun _ ->
      let t0 = now_ns () in
      ignore (phase l f);
      float_of_int (now_ns () - t0) *. 1e-6)

let spans_recorded () = !n_spans

let write_chrome path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let base =
        if !n_spans = 0 then 0
        else Array.fold_left min max_int (Array.sub s_t0 0 !n_spans)
      in
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      for i = 0 to !n_spans - 1 do
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%d}}\n"
          (if i = 0 then "" else ",")
          s_name.(i)
          (float_of_int (s_t0.(i) - base) /. 1e3)
          (float_of_int (s_t1.(i) - s_t0.(i)) /. 1e3)
          i s_parent.(i) s_id.(i)
      done;
      output_string oc "]}\n")
