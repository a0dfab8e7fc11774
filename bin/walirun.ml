(* walirun — the `iwasm`-style CLI: run a .wasm WALI binary (or a bundled
   suite app) on the engine over a freshly booted simulated kernel.

     dune exec bin/walirun.exe -- --app minish -- -c "echo hi"
     dune exec bin/walirun.exe -- program.wasm arg1 arg2
     WALI_VERBOSE-style tracing: --trace; policies: --deny read,write;
     statically derived allowlist: --derive-policy (see bin/waliscan.ml) *)

open Cmdliner

let run_cmd file app trace deny derive poll no_fuse record replay trace_out
    metrics_out profile_out top args =
  let fuse = not no_fuse in
  (* with --app, every positional is an application argument *)
  let t, args =
    match (app, file) with
    | Some name, _ ->
        ( Cli.load_target "walirun" (`App name),
          match file with Some f -> f :: args | None -> args )
    | None, Some f -> (Cli.load_target "walirun" (`File f), args)
    | None, None ->
        prerr_endline "need a .wasm file or --app NAME";
        exit 2
  in
  let binary = t.Apps.Suite.t_binary in
  let tracer = Wali.Strace.create ~verbose:trace () in
  let observe = Cli.sink ~top ~trace_out ~metrics_out ~profile_out () in
  let dump_observe () =
    Option.iter
      (fun o ->
        Cli.dump ~trace_out ~metrics_out ~profile_out o;
        if top then prerr_string (Observe.Sink.report o))
      observe
  in
  let policy =
    if not derive then Wali.Seccomp.allow_all ()
    else
      match Analysis.Reach.analyze_binary binary with
      | summary ->
          if trace then
            Printf.eprintf "derived allowlist (%d): %s\n"
              (List.length (Analysis.Reach.allowlist summary))
              (String.concat " " (Analysis.Reach.allowlist summary));
          Analysis.Reach.policy summary
      | exception e ->
          Printf.eprintf "walirun: --derive-policy analysis failed: %s\n"
            (Printexc.to_string e);
          exit 2
  in
  (* --deny rules land on top of the derived/open policy: the most
     recently added rule for a name (the deny) wins. *)
  List.iter (fun name -> Wali.Seccomp.deny policy name ()) deny;
  let poll_scheme =
    match poll with
    | "none" -> Wasm.Code.Poll_none
    | "funcs" -> Wasm.Code.Poll_funcs
    | "every" -> Wasm.Code.Poll_every
    | _ -> Wasm.Code.Poll_loops
  in
  (* with no explicit arguments, use the target's own argv (for an app,
     the scripted one the test suite and the gate drive it with) *)
  let argv =
    if args = [] then t.Apps.Suite.t_argv else t.Apps.Suite.t_name :: args
  in
  let env = [ "HOME=/home/user"; "TERM=vt100" ] in
  let print_profile () =
    if trace then begin
      Printf.eprintf "--- syscall profile ---\n";
      List.iter
        (fun (n, c) -> Printf.eprintf "%6d %s\n" c n)
        (Wali.Strace.profile tracer)
    end
  in
  match (record, replay) with
  | Some _, Some _ ->
      prerr_endline "walirun: --record and --replay are exclusive";
      exit 2
  | None, Some trace_file ->
      (* swap the simulated kernel out for the log *)
      let tr = Cli.load_trace "walirun" trace_file in
      let o =
        Replay.Replayer.replay ~kernel:(Apps.Suite.boot t) ~fuse ~trace:tr
          ~binary ?observe ()
      in
      dump_observe ();
      (match o.Replay.Replayer.rp_divergence with
      | None ->
          Printf.printf "replay converged: %d/%d records, exit status %d\n"
            o.Replay.Replayer.rp_consumed o.Replay.Replayer.rp_total
            (o.Replay.Replayer.rp_status lsr 8);
          exit (o.Replay.Replayer.rp_status lsr 8)
      | Some d ->
          prerr_endline (Replay.Replayer.pp_divergence d);
          exit 1)
  | Some trace_file, None ->
      let r =
        Replay.Recorder.record
          ~app:(Option.value app ~default:"")
          ~poll_scheme ~fuse ~strace:tracer ~policy
          ~kernel:(Apps.Suite.boot t) ~binary ~argv ~env ?observe ()
      in
      let reduced = Replay.Reduce.reduce r.Replay.Recorder.r_trace in
      Replay.Trace.save trace_file reduced;
      print_string r.Replay.Recorder.r_output;
      Printf.eprintf "recorded %d events (%d bytes) to %s\n"
        (Array.length reduced.Replay.Trace.tr_events)
        (Replay.Reduce.byte_size reduced)
        trace_file;
      dump_observe ();
      print_profile ();
      exit (r.Replay.Recorder.r_status lsr 8)
  | None, None ->
      let status, out, result =
        Wali.Interface.run_program ~kernel:(Apps.Suite.boot t) ~trace:tracer
          ~policy ~poll_scheme ~fuse ?observe ~binary ~argv ~env ()
      in
      print_string out;
      (match result with
      | Some (Wasm.Interp.R_trap msg) -> Printf.eprintf "trap: %s\n" msg
      | _ -> ());
      dump_observe ();
      print_profile ();
      exit (status lsr 8)

let file_t =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.wasm")

let args_t = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS")

let app_t =
  Arg.(value & opt (some string) None & info [ "app" ] ~doc:"Run a bundled suite application.")

let trace_t =
  Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Print each syscall (WALI_VERBOSE).")

let deny_t =
  Arg.(value & opt (list string) [] & info [ "deny" ] ~doc:"Deny these syscalls (seccomp-like policy).")

let derive_t =
  Arg.(value & flag
       & info [ "derive-policy" ]
           ~doc:"Run under the minimal allowlist derived by static \
                 syscall-reachability analysis (default-deny).")

let poll_t =
  Arg.(value & opt string "loops" & info [ "poll" ] ~doc:"Safepoint scheme: none|loops|funcs|every.")

let no_fuse_t =
  Arg.(value & flag
       & info [ "no-fuse" ]
           ~doc:"Disable the macro-op fusion pass: dispatch one flattened \
                 op at a time. Observable behavior is identical either \
                 way; this exists for performance comparison and \
                 differential testing.")

let record_t =
  Arg.(value & opt (some string) None
       & info [ "record" ] ~docv:"FILE"
           ~doc:"Run live and record every syscall, signal delivery and \
                 exit into $(docv) for later deterministic replay.")

let replay_t =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay the run recorded in $(docv) with the kernel \
                 swapped out for the log; fails on the first divergence.")

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON timeline of the run \
                 (syscall spans, scheduler quanta, signals, process \
                 lifecycle) to $(docv); load it in Perfetto or \
                 chrome://tracing.")

let metrics_t =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Dump run metrics as JSON (per-syscall latency \
                 histograms with percentiles, kernel and engine \
                 counters) to $(docv), or stdout when $(docv) is \
                 omitted or -.")

let profile_out_t =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write a folded-stack CPU profile of the run to \
                 $(docv); feed it to flamegraph.pl or speedscope.")

let top_t =
  Arg.(value & flag
       & info [ "top" ]
           ~doc:"Print a walitop-style summary after the run: run \
                 totals, syscalls sorted by time, kernel counters.")

let cmd =
  Cmd.v
    (Cmd.info "walirun" ~doc:"Run WebAssembly binaries over the WALI kernel interface")
    Term.(const run_cmd $ file_t $ app_t $ trace_t $ deny_t $ derive_t
          $ poll_t $ no_fuse_t $ record_t $ replay_t $ trace_out_t $ metrics_t
          $ profile_out_t $ top_t $ args_t)

let () = exit (Cmd.eval cmd)
