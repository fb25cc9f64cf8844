type handle = { mutable live : bool; action : unit -> unit }

(* Hot-path events skip the handle record entirely: the per-packet
   transmit/arrival events in the network simulator are never cancelled,
   so boxing a cancellation flag for each of them is pure overhead. *)
type ev = Fun of (unit -> unit) | H of handle

type t = {
  mutable clock : float;
  queue : ev Timer_wheel.t;
  mutable fired : int;
  mutable busy : float; (* wall-clock seconds spent inside the event loop *)
  profiler : Span.t;
}

let create ?(profiler = Span.disabled) () =
  {
    clock = 0.;
    queue = Timer_wheel.create ();
    fired = 0;
    busy = 0.;
    profiler;
  }

let now t = t.clock

let check_time t time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time t.clock)

let schedule_at t ~time f =
  check_time t time;
  let h = { live = true; action = f } in
  Timer_wheel.push t.queue ~time (H h);
  h

let schedule_after t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let schedule_at_ t ~time f =
  check_time t time;
  Timer_wheel.push t.queue ~time (Fun f)

let schedule_after_ t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at_ t ~time:(t.clock +. delay) f

let cancel h = h.live <- false

let is_pending h = h.live

let fire t time ev =
  t.clock <- time;
  match ev with
  | Fun f ->
    t.fired <- t.fired + 1;
    f ()
  | H h ->
    if h.live then begin
      h.live <- false;
      t.fired <- t.fired + 1;
      h.action ()
    end

(* The one event loop: fire at most [budget] queued events (cancelled
   ones count) due at or before [horizon]; [true] once none is left. *)
let drain t ~horizon ~budget =
  Span.with_ t.profiler ~name:"sim.run" (fun () ->
      let started = Unix.gettimeofday () in
      let left = ref budget and reached = ref false in
      while (not !reached) && !left > 0 do
        match Timer_wheel.pop_before t.queue ~horizon with
        | Some (time, ev) ->
          fire t time ev;
          decr left
        | None -> reached := true
      done;
      t.busy <- t.busy +. (Unix.gettimeofday () -. started);
      !reached)

let advance t ~until ~budget =
  if budget < 1 then invalid_arg "Sim.advance: budget < 1";
  let reached = drain t ~horizon:until ~budget in
  if reached then t.clock <- max t.clock until;
  reached

let run ?until t =
  match until with
  | None -> ignore (drain t ~horizon:infinity ~budget:max_int)
  | Some until -> ignore (advance t ~until ~budget:max_int)

let pending_events t = Timer_wheel.size t.queue

let events_fired t = t.fired

let busy_seconds t = t.busy
