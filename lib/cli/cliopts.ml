open Cmdliner

let checked ~docv ~expected of_string pp valid =
  let parse s =
    match of_string s with
    | Some v when valid v -> Ok v
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected %s, got '%s'" expected s))
  in
  Arg.conv ~docv (parse, pp)

let pos_int =
  checked ~docv:"N" ~expected:"a strictly positive integer" int_of_string_opt
    Format.pp_print_int (fun v -> v > 0)

let pos_float =
  checked ~docv:"X" ~expected:"a strictly positive number" float_of_string_opt
    Format.pp_print_float (fun v -> Float.is_finite v && v > 0.)

(* Written so that nan fails both comparisons. *)
let probability =
  checked ~docv:"P" ~expected:"a probability within [0,1]" float_of_string_opt
    Format.pp_print_float (fun p -> p >= 0. && p <= 1.)

let duration_of_string s =
  let scaled num unit_ =
    match float_of_string_opt num with
    | Some v when Float.is_finite v && v > 0. -> Some (v *. unit_)
    | Some _ | None -> None
  in
  let n = String.length s in
  let v =
    if n >= 2 && String.sub s (n - 2) 2 = "ms" then
      scaled (String.sub s 0 (n - 2)) 1e-3
    else if n >= 1 && s.[n - 1] = 's' then
      scaled (String.sub s 0 (n - 1)) 1.
    else if n >= 1 && s.[n - 1] = 'm' then
      scaled (String.sub s 0 (n - 1)) 60.
    else scaled s 1.
  in
  match v with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf
         "expected a strictly positive duration ('500ms', '2s', '1m' or bare \
          seconds), got '%s'"
         s)

let pp_duration ppf seconds =
  if seconds < 1. && Float.is_integer (seconds *. 1000.) then
    Format.fprintf ppf "%.0fms" (seconds *. 1000.)
  else if Float.is_integer (seconds /. 60.) && seconds >= 60. then
    Format.fprintf ppf "%.0fm" (seconds /. 60.)
  else Format.fprintf ppf "%gs" seconds

let duration =
  let parse s = Result.map_error (fun m -> `Msg m) (duration_of_string s) in
  Arg.conv ~docv:"DURATION" (parse, pp_duration)

(* ------------------------------------------------------------------ *)
(* Shared flags                                                       *)
(* ------------------------------------------------------------------ *)

let jobs =
  let doc =
    "Worker domains for parallel runs (floor 1; default: the machine's \
     recommended domain count minus one).  Output is identical for any \
     value."
  in
  Term.(
    const (max 1)
    $ Arg.(
        value
        & opt int (Engine.Parallel.default_jobs ())
        & info [ "jobs"; "j" ] ~docv:"N" ~doc))

let profile =
  let doc =
    "Write a span profile of the run to $(docv) as Chrome trace-event JSON \
     (load in Perfetto or chrome://tracing); a sorted self/total-time table \
     is printed to stderr.  The profiled span structure is identical for \
     any --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let metrics_out ~doc =
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

type instruments = {
  telemetry : bool;
  trace : string option;
  trace_sample : float;
  profile : string option;
  metrics_out : string option;
}

let no_instruments =
  { telemetry = false; trace = None; trace_sample = 1.; profile = None;
    metrics_out = None }

let instruments ~telemetry_doc ~trace_doc ?metrics_out_doc () =
  let make telemetry trace trace_sample profile metrics_out =
    { telemetry; trace; trace_sample; profile; metrics_out }
  in
  let trace_sample =
    let doc =
      "Probability that any given event is recorded in the trace; the \
       sampled set is a deterministic function of the seed."
    in
    Arg.(
      value & opt probability 1.0 & info [ "trace-sample" ] ~docv:"RATE" ~doc)
  in
  Term.(
    const make
    $ Arg.(value & flag & info [ "telemetry" ] ~doc:telemetry_doc)
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE" ~doc:trace_doc)
    $ trace_sample $ profile
    $
    match metrics_out_doc with
    | None -> const None
    | Some doc -> metrics_out ~doc)

(* ------------------------------------------------------------------ *)
(* Graceful shutdown                                                  *)
(* ------------------------------------------------------------------ *)

let on_signal f =
  List.iter
    (fun signo ->
      (* Some signals cannot be trapped on some platforms; a CLI that
         merely loses graceful shutdown should still start. *)
      try ignore (Sys.signal signo (Sys.Signal_handle f))
      with Sys_error _ | Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let cleanups : (unit -> unit) list ref = ref []

let at_signal_exit f = cleanups := f :: !cleanups

let run_cleanups () =
  let fs = !cleanups in
  cleanups := [];
  List.iter (fun f -> try f () with _ -> ()) fs

(* OCaml numbers signals with its own negative constants; the shell
   reports 128 plus the system number. *)
let exit_status_of_signal signo =
  let posix =
    Sys.[ (sighup, 1); (sigint, 2); (sigquit, 3); (sigabrt, 6); (sigkill, 9);
          (sigalrm, 14); (sigterm, 15) ]
  in
  match List.assoc_opt signo posix with
  | Some n -> 128 + n
  | None -> if signo > 0 then 128 + signo else 1

let exit_on_signal () =
  on_signal (fun signo ->
      run_cleanups ();
      (* [Stdlib.exit], not [Unix._exit]: at_exit handlers run, so open
         channels (NDJSON sinks, --metrics-out files) flush instead of
         truncating their last record mid-line. *)
      Stdlib.exit (exit_status_of_signal signo))

(* ------------------------------------------------------------------ *)
(* Writers                                                            *)
(* ------------------------------------------------------------------ *)

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit 1)
    fmt

let exit_on_error = function Ok v -> v | Error msg -> fail "%s" msg

(* Atomic (temp file + rename): a scraper tailing the file, or a run
   killed mid-write, can never observe a truncated exposition. *)
let write_metrics ?tenant_names path tel =
  try
    Engine.Perf.write_atomic path (fun oc ->
        output_string oc (Engine.Exposition.render ?tenant_names tel))
  with Sys_error e -> fail "cannot write metrics: %s" e

let write_profile path profiler =
  (try
     Out_channel.with_open_text path (fun oc ->
         Engine.Span.write_chrome profiler oc)
   with Sys_error e -> fail "cannot write profile: %s" e);
  Format.eprintf "%a@.wrote %s@." Engine.Span.pp_table profiler path

(* ------------------------------------------------------------------ *)
(* Instrumented runs                                                  *)
(* ------------------------------------------------------------------ *)

module Run = struct
  type part = { registry : Engine.Telemetry.t; profiler : Engine.Span.t }

  type t = {
    ins : instruments;
    tenant_names : (int * string) list option;
    registry : Engine.Telemetry.t;
    profiler : Engine.Span.t;
    final : out_channel option;
    slots : (part * (string * out_channel) option) list ref;  (* newest first *)
  }

  let registry t = t.registry

  let profiler t = t.profiler

  let discard slots =
    List.iter
      (function
        | _, Some (path, _) -> ( try Sys.remove path with Sys_error _ -> ())
        | _, None -> ())
      !slots;
    slots := []

  let abort t = discard t.slots

  let new_profiler ins =
    if ins.profile = None then Engine.Span.disabled else Engine.Span.create ()

  let create ?(registry = false) ?tenant_names ?(seed = 0) ins =
    match Option.map open_out_bin ins.trace with
    | exception Sys_error e -> Error ("cannot write trace: " ^ e)
    | final ->
      let root =
        if registry || ins.telemetry || ins.trace <> None
           || ins.metrics_out <> None
        then Engine.Telemetry.create ()
        else Engine.Telemetry.disabled
      in
      Option.iter
        (Engine.Telemetry.attach_sink root ~sample:ins.trace_sample ~seed)
        final;
      let slots = ref [] in
      (* The signal handler leaves through [Stdlib.exit], so this also
         covers SIGINT/SIGTERM. *)
      at_exit (fun () -> discard slots);
      exit_on_signal ();
      let profiler = new_profiler ins in
      Ok { ins; tenant_names; registry = root; profiler; final; slots }

  let add_slot t part tmp =
    t.slots := (part, tmp) :: !(t.slots);
    part

  let parts t ~seeds =
    List.map
      (fun seed ->
        let registry =
          if Engine.Telemetry.is_enabled t.registry then
            Engine.Telemetry.create ()
          else Engine.Telemetry.disabled
        in
        let tmp =
          Option.map
            (fun _ ->
              let path, oc = Filename.open_temp_file "qvisor-trace" ".ndjson" in
              Engine.Telemetry.attach_sink registry ~sample:t.ins.trace_sample
                ~seed oc;
              (path, oc))
            t.final
        in
        add_slot t { registry; profiler = new_profiler t.ins } tmp)
      seeds

  let profilers t n =
    List.init n (fun _ ->
        let profiler = new_profiler t.ins in
        (add_slot t { registry = Engine.Telemetry.disabled; profiler } None)
          .profiler)

  let append ~into path =
    In_channel.with_open_bin path (fun ic ->
        let buf = Bytes.create 65536 in
        let rec loop () =
          let n = In_channel.input ic buf 0 (Bytes.length buf) in
          if n > 0 then (Out_channel.output into buf 0 n; loop ())
        in
        loop ())

  let finish t =
    List.iteri
      (fun i ((part : part), tmp) ->
        Engine.Telemetry.merge_into ~into:t.registry part.registry;
        Engine.Span.merge_into ~into:t.profiler ~tid:(i + 1) part.profiler;
        match (tmp, t.final) with
        | Some (path, oc), Some into ->
          Engine.Telemetry.detach_sink part.registry;
          close_out oc;
          append ~into path;
          Sys.remove path
        | _ -> ())
      (List.rev !(t.slots));
    t.slots := [];
    (* Taken while the trace sink is attached, so it carries the trace
       counts. *)
    let snapshot =
      if Engine.Telemetry.is_enabled t.registry then
        Some (Engine.Telemetry.snapshot t.registry)
      else None
    in
    Option.iter
      (fun path ->
        write_metrics ?tenant_names:t.tenant_names path t.registry;
        Format.eprintf "wrote %s@." path)
      t.ins.metrics_out;
    (match (t.final, t.ins.trace) with
    | Some oc, Some path ->
      Engine.Telemetry.detach_sink t.registry;
      close_out oc;
      Format.eprintf "wrote %s@." path
    | _ -> ());
    if t.ins.telemetry then
      Option.iter
        (fun s -> print_endline (Engine.Json.to_string ~pretty:true s))
        snapshot;
    Option.iter (fun path -> write_profile path t.profiler) t.ins.profile;
    snapshot
end
