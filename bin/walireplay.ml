(* walireplay — record, replay, inspect and reduce WALI syscall traces.

     dune exec bin/walireplay.exe -- record --app calc -o calc.trace
     dune exec bin/walireplay.exe -- replay calc.trace
     dune exec bin/walireplay.exe -- report calc.trace
     dune exec bin/walireplay.exe -- reduce big.trace -o small.trace --prefix 100

   Recording runs a bundled app (or a raw .wasm binary) on the kernel
   Apps.Suite.boot prepares — the same setup and scripted stdin the test
   suite and the gate use — and captures every
   event that crosses the thin interface. Replaying re-runs the module
   with the kernel swapped out for the log and reports the first
   divergence, if any. *)

open Cmdliner

let load_trace = Cli.load_trace "walireplay"

(* ---- record ---- *)

let record_cmd file app out =
  let t =
    match (app, file) with
    | Some name, None -> Cli.load_target "walireplay" (`App name)
    | None, Some f -> Cli.load_target "walireplay" (`File f)
    | _ ->
        prerr_endline "walireplay record: need exactly one of FILE.wasm or --app NAME";
        exit 2
  in
  let r =
    Replay.Recorder.record ~app:t.Apps.Suite.t_name ~kernel:(Apps.Suite.boot t)
      ~binary:t.Apps.Suite.t_binary ~argv:t.Apps.Suite.t_argv ~env:[] ()
  in
  let reduced = Replay.Reduce.reduce r.Replay.Recorder.r_trace in
  Replay.Trace.save out reduced;
  Printf.printf "%s: recorded %d events (%d bytes%s) to %s, exit status %d\n"
    t.Apps.Suite.t_name
    (Array.length reduced.Replay.Trace.tr_events)
    (Replay.Reduce.byte_size reduced)
    (let raw = Replay.Reduce.byte_size r.Replay.Recorder.r_trace in
     if raw > Replay.Reduce.byte_size reduced then
       Printf.sprintf ", %d raw" raw
     else "")
    out
    (r.Replay.Recorder.r_status lsr 8);
  exit 0

(* ---- replay ---- *)

let replay_cmd file app wasm no_digest trace_out metrics_out profile_out =
  let trace = load_trace file in
  let t =
    match (app, wasm) with
    | Some name, None -> Cli.load_target "walireplay" (`App name)
    | None, Some f -> Cli.load_target "walireplay" (`File f)
    | None, None ->
        let recorded = trace.Replay.Trace.tr_header.Replay.Trace.h_app in
        if recorded = "" then begin
          prerr_endline
            "walireplay replay: trace has no app name; pass --app or --wasm";
          exit 2
        end
        else Cli.load_target "walireplay" (`App recorded)
    | Some _, Some _ ->
        prerr_endline "walireplay replay: --app and --wasm are exclusive";
        exit 2
  in
  (* A replayed run regenerates observability artifacts from the log:
     same per-syscall outcomes, same virtual-clock timeline. *)
  let observe = Cli.sink ~trace_out ~metrics_out ~profile_out () in
  let o =
    Replay.Replayer.replay ~kernel:(Apps.Suite.boot t)
      ~check_digest:(not no_digest) ?observe ~trace
      ~binary:t.Apps.Suite.t_binary ()
  in
  Option.iter (Cli.dump ~trace_out ~metrics_out ~profile_out) observe;
  (match o.Replay.Replayer.rp_divergence with
  | None ->
      Printf.printf "%s: replay converged: %d/%d records, exit status %d\n"
        t.Apps.Suite.t_name o.Replay.Replayer.rp_consumed
        o.Replay.Replayer.rp_total
        (o.Replay.Replayer.rp_status lsr 8);
      exit 0
  | Some d ->
      Printf.eprintf "%s: %s\n" t.Apps.Suite.t_name
        (Replay.Replayer.pp_divergence d);
      exit 1)

(* ---- report ---- *)

let report_cmd file =
  Replay.Report.print (load_trace file);
  exit 0

(* ---- reduce ---- *)

let reduce_cmd file out prefix =
  let trace = load_trace file in
  let before = Replay.Reduce.byte_size trace in
  let reduced = Replay.Reduce.reduce trace in
  let reduced =
    match prefix with
    | None -> reduced
    | Some n -> Replay.Reduce.truncate reduced ~n
  in
  Replay.Trace.save out reduced;
  Printf.printf "%s: %d bytes -> %d bytes (%d events%s)\n" out before
    (Replay.Reduce.byte_size reduced)
    (Array.length reduced.Replay.Trace.tr_events)
    (match prefix with
    | Some n -> Printf.sprintf ", truncated to first %d" n
    | None -> "");
  exit 0

(* ---- cmdliner wiring ---- *)

let file_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
let wasm_pos = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.wasm")

let app_t =
  Arg.(value & opt (some string) None
       & info [ "app" ] ~doc:"A bundled suite application.")

let out_t =
  Arg.(required & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let wasm_t =
  Arg.(value & opt (some string) None
       & info [ "wasm" ] ~docv:"FILE.wasm" ~doc:"Replay against this binary.")

let no_digest_t =
  Arg.(value & flag
       & info [ "no-digest-check" ]
           ~doc:"Replay even if the binary's digest differs from the one \
                 recorded in the trace header.")

let prefix_t =
  Arg.(value & opt (some int) None
       & info [ "prefix" ] ~docv:"N"
           ~doc:"Keep only the first N events (divergence bisection).")

let record_c =
  Cmd.v
    (Cmd.info "record" ~doc:"Record a run into a trace file")
    Term.(const record_cmd $ wasm_pos $ app_t $ out_t)

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Regenerate a Chrome trace-event JSON timeline from the \
                 replayed run into $(docv).")

let metrics_t =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Regenerate the metrics JSON dump from the replayed run \
                 into $(docv) (stdout when omitted or -).")

let profile_out_t =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Regenerate a folded-stack profile from the replayed \
                 run into $(docv).")

let replay_c =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a trace and report the first divergence")
    Term.(const replay_cmd $ file_pos $ app_t $ wasm_t $ no_digest_t
          $ trace_out_t $ metrics_t $ profile_out_t)

let report_c =
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize a trace (per-syscall calls/errors/bytes)")
    Term.(const report_cmd $ file_pos)

let reduce_c =
  Cmd.v
    (Cmd.info "reduce" ~doc:"Shrink a trace (zero-run compression, --prefix)")
    Term.(const reduce_cmd $ file_pos $ out_t $ prefix_t)

let cmd =
  Cmd.group
    (Cmd.info "walireplay"
       ~doc:"Deterministic record/replay at the WALI boundary")
    [ record_c; replay_c; report_c; reduce_c ]

let () = exit (Cmd.eval cmd)
