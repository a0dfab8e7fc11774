(** The deterministic scenario runner and the gate behind `waliperf`.

    Each bundled app runs once, recorded: under the seccomp allowlist
    derived from its own binary ({!Analysis.Reach}), with the replay
    recorder, a tracer and every observability pillar attached. That one
    run feeds every counter and every gate check. The counters are
    deterministic — instructions retired, syscall crossings,
    virtual-clock nanoseconds, scheduler and kernel event counts — so two
    runs of the same build produce byte-identical results, which is what
    lets the baseline gate use zero tolerance.

    The suite-level scenario merges every per-app latency histogram
    ({!Observe.Hist.merge}) into whole-suite percentiles of time below
    the WALI boundary — still virtual-clock, still deterministic. *)

type app_result = {
  ar_target : Apps.Suite.target;
  ar_metrics : (string * Model.metric) list;
  ar_reg : Observe.Metrics.t; (* the run's syscall registry *)
  ar_folded : string; (* the folded-stack profile of the run *)
  ar_profile_total : int64; (* the sink's profiled time *)
  ar_trace_json : string; (* the Chrome trace-event timeline *)
  ar_metrics_json : string;
  ar_soundness : Analysis.Crosscheck.result; (* static vs dynamic set *)
  ar_trace : Replay.Trace.t; (* the reduced recording *)
}

let scenario_name app = "app/" ^ app

let record ?strace ?observe ~fuse ~policy (t : Apps.Suite.target) =
  Replay.Recorder.record ~app:t.Apps.Suite.t_name ~fuse ?strace ~policy
    ?observe ~kernel:(Apps.Suite.boot t) ~binary:t.Apps.Suite.t_binary
    ~argv:t.Apps.Suite.t_argv ~env:[] ()

(** The one recorded run of [a]: under its derived allowlist, with the
    recorder, a tracer and an all-pillars sink attached. *)
let run_app ?(fuse = true) ?(walls = false) (a : Apps.Suite.app) : app_result =
  let t = Apps.Suite.target a in
  let summary =
    Analysis.Reach.analyze_binary ~name:t.Apps.Suite.t_name
      t.Apps.Suite.t_binary
  in
  let policy = Analysis.Reach.policy summary in
  let strace = Wali.Strace.create () in
  let sink = Observe.Sink.create Observe.Sink.all_on in
  let r = record ~strace ~observe:sink ~fuse ~policy t in
  let status = r.Replay.Recorder.r_status in
  let rc = Observe.Sink.run_counters sink in
  let reg = Observe.Sink.metrics sink in
  let ks = Observe.Sink.kstats_or_zero sink in
  let ci = Model.counter_i in
  let c v = Model.counter (float_of_int v) in
  (* Host wall-clock is the one non-deterministic metric and is opt-in:
     the gate and the committed baselines never see it (Wall rows would
     be hardware-dependent), but `waliperf run --walls` measures it so
     fused and unfused runs can be compared on real time. *)
  let wall_metrics =
    if not walls then []
    else
      let sample () =
        (* decorrelate minor-heap state between samples; at sub-ms run
           lengths a collection landing inside one sample otherwise
           dominates the measurement *)
        Gc.minor ();
        let t0 = Unix.gettimeofday () in
        ignore (Apps.Suite.run ~fuse a);
        (Unix.gettimeofday () -. t0) *. 1e9
      in
      (* Short runs (boot-dominated, sub-ms) are noisy at n=5: take more
         samples so the min-of-N actually reaches the uncontended floor.
         The pilot sample doubles as warmup. *)
      let pilot = sample () in
      let n = if pilot < 1e6 then 25 else if pilot < 10e6 then 9 else 5 in
      let s = Stats.measure ~warmup:1 ~n sample in
      [ ("host_wall_ns", Model.wall s) ]
  in
  {
    ar_target = t;
    ar_metrics =
      [
        ("instructions", ci rc.Observe.Sink.rc_instructions);
        ("fused_dispatches", ci rc.Observe.Sink.rc_fused);
        ("fusion_sites", c rc.Observe.Sink.rc_fusion_sites);
        ("fusion_ops_before", c rc.Observe.Sink.rc_fusion_ops_before);
        ("fusion_ops_after", c rc.Observe.Sink.rc_fusion_ops_after);
        ("syscalls", c (Observe.Metrics.total_calls reg));
        ("unique_syscalls", c (Observe.Metrics.unique reg));
        ("syscall_errors", c (Observe.Metrics.total_errors reg));
        ("syscall_ns", ci ~unit_:"ns" (Observe.Metrics.total_ns reg));
        ("virtual_ns", ci ~unit_:"ns" rc.Observe.Sink.rc_wall_ns);
        ("profile_ns", ci ~unit_:"ns" rc.Observe.Sink.rc_profile_ns);
        ("ctx_switches", c rc.Observe.Sink.rc_ctx_switches);
        ("processes", c rc.Observe.Sink.rc_processes);
        ("safepoint_polls", ci rc.Observe.Sink.rc_safepoint_polls);
        ("dcache_hits", ci ks.Observe.Metrics.dcache_hits);
        ("dcache_misses", ci ks.Observe.Metrics.dcache_misses);
        ("exit_status", c (status lsr 8));
      ]
      @ wall_metrics;
    ar_reg = reg;
    ar_folded = Observe.Sink.profile_folded sink;
    ar_profile_total = Observe.Sink.profile_total sink;
    ar_trace_json = Observe.Sink.trace_json sink;
    ar_metrics_json = Observe.Sink.metrics_json sink;
    ar_soundness =
      Analysis.Crosscheck.check ~summary ~policy ~trace:strace ~status
        ~output:r.Replay.Recorder.r_output;
    ar_trace = Replay.Reduce.reduce r.Replay.Recorder.r_trace;
  }

(** Suite-level aggregate: merge the per-syscall latency histograms of
    every app into one, and report whole-suite counters and latency
    percentiles below the WALI boundary. *)
let suite_scenario (results : app_result list) :
    string * (string * Model.metric) list =
  let merged =
    List.fold_left
      (fun acc r ->
        Observe.Metrics.fold
          (fun _ (s : Observe.Metrics.syscall_stats) acc ->
            Observe.Hist.merge acc s.Observe.Metrics.hist)
          r.ar_reg acc)
      (Observe.Hist.create ()) results
  in
  let sum name =
    List.fold_left
      (fun a r ->
        match List.assoc_opt name r.ar_metrics with
        | Some m -> a +. m.Model.m_value
        | None -> a)
      0.0 results
  in
  ( "suite",
    [
      ("apps", Model.counter (float_of_int (List.length results)));
      ("instructions", Model.counter (sum "instructions"));
      ("fused_dispatches", Model.counter (sum "fused_dispatches"));
      ("dcache_hits", Model.counter (sum "dcache_hits"));
      ("dcache_misses", Model.counter (sum "dcache_misses"));
      ("syscalls", Model.counter (sum "syscalls"));
      ("virtual_ns", Model.counter ~unit_:"ns" (sum "virtual_ns"));
      ( "latency_p50_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.percentile merged 0.50) );
      ( "latency_p90_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.percentile merged 0.90) );
      ( "latency_p99_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.percentile merged 0.99) );
      ( "latency_max_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.max_value merged) );
    ] )

let name r = r.ar_target.Apps.Suite.t_name

(** The [wali-bench v1] model of a set of runs, plus their per-app folded
    profiles (for the differential profiler). *)
let suite_model (results : app_result list) :
    Model.t * (string * string) list =
  let scenarios =
    suite_scenario results
    :: List.map (fun r -> (scenario_name (name r), r.ar_metrics)) results
  in
  ( Model.make ~suite:"wali-deterministic" scenarios,
    List.map (fun r -> (name r, r.ar_folded)) results )

let run_suite ?(apps = Apps.Suite.all) ?fuse ?walls () =
  suite_model (List.map (run_app ?fuse ?walls) apps)

(* ------------------------------------------------------------------ *)
(* The gate: every check reads the one recorded run per app            *)
(* ------------------------------------------------------------------ *)

(* Every failure names the app (or "suite") and the check that failed. *)
let fail app check fmt =
  Printf.ksprintf (fun msg -> Printf.sprintf "%s: %s: %s" app check msg) fmt

(** Static ⊇ dynamic: no traced syscall escapes the derived allowlist and
    the policy denied nothing. Either is an analyzer soundness bug. *)
let check_soundness (r : app_result) : string list =
  List.map
    (fail (name r) "soundness" "%s")
    (Analysis.Crosscheck.violations r.ar_soundness)

(** The three observability artifacts: a well-nested, non-empty trace
    (with at least two process lanes for the forking minish), a metrics
    dump that carries its schema, and a non-empty folded profile whose
    weight equals the profiled time exactly. *)
let check_artifacts (r : app_result) : string list =
  let fail fmt = fail (name r) "artifacts" fmt in
  let trace =
    match Observe.Check.check_trace r.ar_trace_json with
    | Error e -> [ fail "trace: %s" e ]
    | Ok { Observe.Check.ts_events = 0; _ } -> [ fail "trace is empty" ]
    | Ok ts ->
        let pids = ts.Observe.Check.ts_pids in
        let lanes =
          List.length (List.filter (( <> ) Observe.Sink.sched_pid) pids)
        in
        if name r = "minish" && lanes < 2 then
          [ fail "expected >= 2 process lanes, got %d" lanes ]
        else []
  in
  let metrics =
    match Observe.Check.check_metrics r.ar_metrics_json with
    | Error e -> [ fail "metrics: %s" e ]
    | Ok () -> []
  in
  let profile =
    match Observe.Check.check_folded r.ar_folded with
    | Error e -> [ fail "profile: %s" e ]
    | Ok total ->
        if Int64.compare total 0L <= 0 then [ fail "profile is empty" ]
        else if not (Int64.equal total r.ar_profile_total) then
          [ fail "profile total %Ld <> profiled time %Ld" total
              r.ar_profile_total ]
        else []
  in
  trace @ metrics @ profile

(** The fusion differential: fusion may change how fast ops dispatch,
    never which events cross the WALI boundary, so the app re-recorded
    unfused under the same policy must encode byte-identically. *)
let check_fusion (r : app_result) : string list =
  let policy =
    Wali.Seccomp.allowlist r.ar_soundness.Analysis.Crosscheck.cc_static
  in
  let unfused = record ~fuse:false ~policy r.ar_target in
  let fused = Replay.Trace.encode r.ar_trace
  and plain =
    Replay.Trace.encode (Replay.Reduce.reduce unfused.Replay.Recorder.r_trace)
  in
  if String.equal fused plain then []
  else
    [ fail (name r) "fusion"
        "fused and unfused runs recorded different traces (%d vs %d bytes)"
        (String.length fused) (String.length plain) ]

(** What replays is the decode of the encode, so every app exercises the
    codec and the replayer; the replay must converge. *)
let check_replay (r : app_result) : string list =
  let t = r.ar_target in
  let trace = Replay.Trace.decode (Replay.Trace.encode r.ar_trace) in
  let o =
    Replay.Replayer.replay ~kernel:(Apps.Suite.boot t) ~trace
      ~binary:t.Apps.Suite.t_binary ()
  in
  match o.Replay.Replayer.rp_divergence with
  | None -> []
  | Some d -> [ fail (name r) "replay" "%s" (Replay.Replayer.pp_divergence d) ]

type verdict = {
  v_rows : Baseline.row list; (* every counter against the baseline *)
  v_failures : string list; (* empty: the gate passes *)
  v_diffs : string; (* flamegraph diff of each drifted app *)
}

(** Run every check over [results]; counters are compared against [base]
    at zero tolerance, and each drifted app's profile is diffed against
    [base_folded app]. *)
let gate ~(base : Model.t) ~(base_folded : string -> string option)
    (results : app_result list) : verdict =
  let model, profiles = suite_model results in
  let rows = Baseline.compare_runs ~base ~cur:model () in
  let drift = Baseline.counter_drift rows in
  let app_of (row : Baseline.row) =
    let sc = row.Baseline.r_scenario in
    if String.starts_with ~prefix:"app/" sc then
      String.sub sc 4 (String.length sc - 4)
    else sc
  in
  let drifted =
    List.sort_uniq compare (List.map app_of drift)
    |> List.filter (fun app -> List.mem_assoc app profiles)
  in
  let diff app =
    "--- " ^ app ^ " ---\n"
    ^
    match base_folded app with
    | None -> "no baseline profile\n"
    | Some base -> (
        match Diffprof.diff ~base ~cur:(List.assoc app profiles) with
        | Ok d -> Diffprof.render d
        | Error e -> "diff failed: " ^ e ^ "\n")
  in
  {
    v_rows = rows;
    v_failures =
      List.concat_map
        (fun r ->
          check_soundness r @ check_artifacts r @ check_fusion r
          @ check_replay r)
        results
      @ List.map
          (fun (row : Baseline.row) ->
            fail (app_of row) "counters" "%s drifted: %s -> %s (%s)"
              row.Baseline.r_metric
              (Model.pp_num row.Baseline.r_base)
              (Model.pp_num row.Baseline.r_cur)
              (Baseline.verdict_name row.Baseline.r_verdict))
          drift;
    v_diffs = String.concat "" (List.map diff drifted);
  }
