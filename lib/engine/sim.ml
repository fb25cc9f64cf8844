(* A cancellable event's thunk checks its handle; the handle never names
   the event's pool slot, which is reused once the event pops. *)
type handle = { mutable live : bool }

type t = {
  mutable clock : float;
  (* The payload is the event's thunk itself: hot-path events (per-packet
     transmit/arrival) are never cancelled and cost no wrapper. *)
  queue : (unit -> unit) Timer_wheel.t;
  mutable fired : int;
  mutable busy : float; (* wall-clock seconds spent inside the event loop *)
  profiler : Span.t;
}

let create ?(profiler = Span.disabled) () =
  {
    clock = 0.;
    queue = Timer_wheel.create ~empty:ignore ();
    fired = 0;
    busy = 0.;
    profiler;
  }

let now t = t.clock

(* Scheduling checks compare in line and raise out of line, so a float
   is boxed once per event, for the queue, and not again for a check.
   [not (time >= now)] also rejects nan, which would otherwise fire first
   and leave the clock at nan. *)
let past t time =
  invalid_arg
    (Printf.sprintf "Sim.schedule_at: time %g is nan or before now %g" time
       t.clock)

let bad_delay () = invalid_arg "Sim.schedule_after: negative or nan delay"

let[@inline] schedule_at_ t ~time f =
  if not (time >= t.clock) then past t time;
  Timer_wheel.push t.queue ~time f

(* [now +. delay >= now] holds for every [delay >= 0.]. *)
let[@inline] schedule_after_ t ~delay f =
  if not (delay >= 0.) then bad_delay ();
  Timer_wheel.push t.queue ~time:(t.clock +. delay) f

(* The loop counts every popped event as fired; a cancelled one takes its
   count back, so [events_fired] still excludes it. *)
let schedule_at t ~time f =
  if not (time >= t.clock) then past t time;
  let h = { live = true } in
  Timer_wheel.push t.queue ~time (fun () ->
      if h.live then begin
        h.live <- false;
        f ()
      end
      else t.fired <- t.fired - 1);
  h

let schedule_after t ~delay f =
  if not (delay >= 0.) then bad_delay ();
  schedule_at t ~time:(t.clock +. delay) f

let cancel h = h.live <- false

let is_pending h = h.live

(* The one event loop: fire at most [budget] queued events (cancelled
   ones count) due at or before [horizon]; [true] once none is left. *)
let drain t ~horizon ~budget =
  Span.with_ t.profiler ~name:"sim.run" (fun () ->
      let started = Unix.gettimeofday () in
      let left = ref budget and reached = ref false in
      while (not !reached) && !left > 0 do
        let i = Timer_wheel.pop_before t.queue ~horizon in
        if i < 0 then reached := true
        else begin
          t.clock <- Timer_wheel.time t.queue i;
          let f = Timer_wheel.take t.queue i in
          t.fired <- t.fired + 1;
          decr left;
          f ()
        end
      done;
      t.busy <- t.busy +. (Unix.gettimeofday () -. started);
      !reached)

let advance t ~until ~budget =
  if budget < 1 then invalid_arg "Sim.advance: budget < 1";
  if Float.is_nan until then invalid_arg "Sim.advance: until is nan";
  let reached = drain t ~horizon:until ~budget in
  if reached then t.clock <- max t.clock until;
  reached

let run ?until t =
  match until with
  | None -> ignore (drain t ~horizon:infinity ~budget:max_int)
  | Some until -> ignore (advance t ~until ~budget:max_int)

let events_fired t = t.fired

let busy_seconds t = t.busy
