(* Helpers shared by walirun, waliscan, walireplay and waliperf. *)

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

(* Load a bundled app or a .wasm file, or exit with the loader's message:
   status 2 for an unknown app (a usage error), 1 for an unreadable file. *)
let load_target prog src =
  match Apps.Suite.load src with
  | Ok t -> t
  | Error e ->
      Printf.eprintf "%s: %s\n" prog e;
      exit (match src with `App _ -> 2 | `File _ -> 1)

(* Load a trace file, or exit 1 with the reason. *)
let load_trace prog file =
  match Replay.Trace.load file with
  | tr -> tr
  | exception Replay.Trace.Corrupt msg ->
      Printf.eprintf "%s: %s: corrupt trace: %s\n" prog file msg;
      exit 1
  | exception Replay.Trace.Bad_version v ->
      Printf.eprintf
        "%s: %s: trace format version %d, this build reads version %d\n" prog
        file v Replay.Trace.version;
      exit 1
  | exception Sys_error e ->
      Printf.eprintf "%s: %s\n" prog e;
      exit 1

(* One sink serves --trace-out, --metrics and --profile-out (and walirun's
   --top, which reads the metrics pillar); None when no flag asks for one. *)
let sink ?(top = false) ~trace_out ~metrics_out ~profile_out () =
  if trace_out = None && metrics_out = None && profile_out = None && not top
  then None
  else
    Some
      (Observe.Sink.create
         {
           Observe.Sink.c_metrics = metrics_out <> None || top;
           c_trace = trace_out <> None;
           c_profile = profile_out <> None;
         })

(* Write each artifact a flag asked for; --metrics - goes to stdout. *)
let dump ~trace_out ~metrics_out ~profile_out o =
  Option.iter (fun f -> write_file f (Observe.Sink.trace_json o)) trace_out;
  (match metrics_out with
  | Some "-" -> print_string (Observe.Sink.metrics_json o)
  | Some f -> write_file f (Observe.Sink.metrics_json o)
  | None -> ());
  Option.iter
    (fun f -> write_file f (Observe.Sink.profile_folded o))
    profile_out
