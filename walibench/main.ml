(* The WALI workload benchmark driver. See README.md. *)

open Gen

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Set-up: compile the MiniC sources, derive the policies, make inputs  *)
(* ------------------------------------------------------------------ *)

type setup = {
  s_app : string; (* the launched app, as its argv[0] names it *)
  s_binary : string; (* the launched image *)
  s_installs : (string * string) list; (* VFS path -> image, installed 0755 *)
  s_allow : string list; (* the derived allowlist *)
  s_pool : program array;
}

let compile_app name =
  match Apps.Suite.find name with
  | Some a -> Minic.to_wasm_binary a.Apps.Suite.a_source
  | None -> failwith ("no suite app " ^ name)

let allowlist_of binary =
  Analysis.Reach.allowlist (Analysis.Reach.analyze_binary binary)

(* A program may exec every image installed beside it, and the engine
   holds one policy for all its processes, so the allowlist is the union
   of the reachable sets of all images the program can run. *)
let make_setup w ~seed =
  let app, installs =
    match w with
    | Compute -> ("calc", [])
    | Kv | Kv_record -> ("kvd", [])
    | Shell -> ("minish", [ (calc_path, "calc") ])
  in
  let binary = compile_app app in
  let installs = List.map (fun (path, a) -> (path, compile_app a)) installs in
  let allow =
    List.sort_uniq compare
      (List.concat_map allowlist_of (binary :: List.map snd installs))
  in
  {
    s_app = app;
    s_binary = binary;
    s_installs = installs;
    s_allow = allow;
    s_pool = pool w ~seed;
  }

let boot s =
  let k = Kernel.Task.boot () in
  let fs = k.Kernel.Task.fs in
  List.iter
    (fun (path, image) ->
      Kernel.Vfs.write_file fs path image;
      match Kernel.Vfs.resolve fs ~cwd:fs.Kernel.Vfs.root path with
      | Ok node -> node.Kernel.Vfs.mode <- node.Kernel.Vfs.mode lor 0o111
      | Error e -> failwith ("install " ^ path ^ ": " ^ Kernel.Errno.to_string e))
    s.s_installs;
  k

(* ------------------------------------------------------------------ *)
(* Untraced runs: the stock entry points, as the CLIs use them         *)
(* ------------------------------------------------------------------ *)

(* Run one program on [kernel] through [Interface.run_program], or for
   kv-record through [Recorder.record] plus [Trace.encode] as walireplay
   does, and judge its exit status and output. Any escaped exception,
   Fiber.Deadlock included, is a failed program, not an aborted run. *)
let run_stock ?strace ?observe w s kernel (p : program) : bool =
  let policy = Wali.Seccomp.allowlist s.s_allow in
  match
    match w with
    | Kv_record ->
        let r =
          Replay.Recorder.record ~app:s.s_app ~kernel ~policy ?strace ?observe
            ~binary:s.s_binary ~argv:p.argv ~env:[] ()
        in
        let bytes = Replay.Trace.encode r.Replay.Recorder.r_trace in
        ( r.Replay.Recorder.r_status,
          r.Replay.Recorder.r_output,
          String.length bytes > 0 )
    | Compute | Kv | Shell ->
        let st, out, _ =
          Wali.Interface.run_program ~kernel ~policy ?trace:strace ?observe
            ~binary:s.s_binary ~argv:p.argv ~env:[] ()
        in
        (st, out, true)
  with
  | st, out, encoded -> st = 0 && String.equal out p.expect && encoded
  | exception _ -> false

type outcome = { o_ok : bool; o_ms : float }

(* One program, from kernel boot to exit, with an empty compile cache as
   a fresh walirun process has. *)
let run_untraced w s (p : program) : outcome =
  Hashtbl.reset Wali.Engine.compile_cache;
  let t0 = now_ns () in
  let ok = run_stock w s (boot s) p in
  { o_ok = ok; o_ms = secs_since t0 *. 1e3 }

(* ------------------------------------------------------------------ *)
(* Statistics and output                                                *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample. *)
let percentile q (xs : float array) =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median xs = percentile 0.5 xs

(* Peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (ms : metric list) =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (json_number m.m_value) m.m_unit)
          ms))

(* ------------------------------------------------------------------ *)
(* The deterministic counting pass: an Observe sink, metrics only       *)
(* ------------------------------------------------------------------ *)

type counts = {
  c_ok : bool;
  c_instructions : int;
  c_fused : int; (* superinstruction dispatches *)
  c_processes : int;
  c_calls : int; (* Strace.total_calls *)
  c_vfs_ops : int;
  c_dcache_hits : int;
  c_dcache_misses : int;
  c_pipe_bytes : int;
  c_sock_bytes : int;
  c_futex_waits : int;
  c_sig_delivered : int;
}

let count_program w s (p : program) : counts =
  Hashtbl.reset Wali.Engine.compile_cache;
  let kernel = boot s in
  let observe = Observe.Sink.create Observe.Sink.metrics_only in
  let strace = Wali.Strace.create () in
  let ok = run_stock ~strace ~observe w s kernel p in
  let rc = Observe.Sink.run_counters observe in
  let ks = kernel.Kernel.Task.stats in
  let open Observe.Metrics in
  {
    c_ok = ok;
    c_instructions = Int64.to_int rc.Observe.Sink.rc_instructions;
    c_fused = Int64.to_int rc.Observe.Sink.rc_fused;
    c_processes = rc.Observe.Sink.rc_processes;
    c_calls = Wali.Strace.total_calls strace;
    c_vfs_ops = List.fold_left (fun a (_, n) -> a + n) 0 (vfs_by_name ks);
    c_dcache_hits = Int64.to_int ks.dcache_hits;
    c_dcache_misses = Int64.to_int ks.dcache_misses;
    c_pipe_bytes = Int64.to_int ks.pipe_bytes;
    c_sock_bytes = Int64.to_int ks.sock_bytes;
    c_futex_waits = ks.futex_waits;
    c_sig_delivered = ks.sig_delivered;
  }

(* ------------------------------------------------------------------ *)
(* Traced runs                                                          *)
(* ------------------------------------------------------------------ *)

let traced w s lay (p : program) : Layers.prog =
  match
    Layers.run_program lay ~boot:(fun () -> boot s)
      ~policy:(Wali.Seccomp.allowlist s.s_allow) ~record:(w = Kv_record)
      ~app:s.s_app ~binary:s.s_binary ~argv:p.argv
  with
  | tp, st, out ->
      tp.Layers.p_ok <-
        st = 0 && String.equal out p.expect
        && (w <> Kv_record || tp.Layers.p_trace_bytes > 0);
      tp
  | exception _ -> Layers.fresh_prog ()

(* Host time per [Seccomp.check], replaying a syscall-name sequence
   through the program's allowlist for at least 50 ms. *)
let seccomp_check_ns allow (names : string array) =
  let policy = Wali.Seccomp.allowlist allow in
  let n = Array.length names in
  if n = 0 then 0.
  else begin
    let t0 = now_ns () and reps = ref 0 in
    while secs_since t0 < 0.05 do
      Array.iter
        (fun nm -> ignore (Sys.opaque_identity (Wali.Seccomp.check policy nm)))
        names;
      incr reps
    done;
    secs_since t0 *. 1e9 /. float (!reps * n)
  end

(* Two processes: the child blocks in read() while the parent computes,
   then the parent's write wakes it. Crossing spans keyed by one global
   nesting depth would charge the parent's whole loop to the child's
   read; keyed per fiber, the read is almost all blocked time and the
   loop is interpretation. *)
let two_process_source =
  {|
int fds[2];
int st[1];
char buf[4];
int main(int argc, char **argv) {
  pipe(fds);
  int pid = fork();
  if (pid == 0) {
    read(fds[0], buf, 1);
    exit(0);
  }
  sched_yield();
  int acc = 0;
  for (int i = 0; i < 60000; i = i + 1) { acc = (acc + i * 7) % 1000; }
  write(fds[1], "x", 1);
  waitpid(pid, st, 0);
  printi(acc); print("\n");
  return 0;
}
|}

let two_process_check () =
  let binary = Minic.to_wasm_binary two_process_source in
  let lay = Layers.create () in
  let p, st, out =
    Layers.run_program lay ~boot:Kernel.Task.boot
      ~policy:(Wali.Seccomp.allowlist (allowlist_of binary)) ~record:false
      ~app:"two-process" ~binary ~argv:[ "two-process" ]
  in
  let acc = ref 0 in
  for i = 0 to 59_999 do
    acc := (!acc + (i * 7)) mod 1000
  done;
  let share = float p.Layers.p_busy /. float p.Layers.p_wall in
  let interp = Layers.interp p in
  ( st = 0
    && String.equal out (Printf.sprintf "%d\n" !acc)
    && share < 0.5
    && p.Layers.p_blocked * 2 > interp,
    Printf.sprintf "crossing share %.3f, blocked %.2f ms, interp %.2f ms" share
      (float p.Layers.p_blocked /. 1e6) (float interp /. 1e6) )

(* ------------------------------------------------------------------ *)
(* The two modes                                                        *)
(* ------------------------------------------------------------------ *)

(* Programs of the counting pass and of the deterministic per-program
   counts of the traced run: the first [count_k] of the pool. *)
let count_k = 16

(* The traced layer times must cover the traced wall within this share;
   what is left is the scheduler's own work between quanta. *)
let sum_band = 0.05

let run_loop ~seconds ~min_programs f =
  let t_start = now_ns () in
  let deadline = Int64.add t_start (Int64.mul (Int64.of_int seconds) 1_000_000_000L) in
  let i = ref 0 in
  while Int64.compare (now_ns ()) deadline < 0 || !i < min_programs do
    f !i;
    incr i
  done;
  secs_since t_start

let timed_setup w ~seed =
  let t0 = now_ns () in
  let s = make_setup w ~seed in
  (s, secs_since t0)

(* Set-up takes milliseconds, so one sample would catch the host at one
   instant. It is repeated once a second through the run, outside the
   program timings and the loop's elapsed time, so its median samples
   the host over the whole run as the program timings do. *)
let setup_every_s = 1.0

let untraced_mode w ~seed ~seconds =
  let s, t = timed_setup w ~seed in
  let setup_times = ref [ t ] and in_setup = ref 0. in
  let last_setup = ref (now_ns ()) in
  let ms = ref [] and failed = ref 0 and attempted = ref 0 in
  let elapsed =
    run_loop ~seconds ~min_programs:1 (fun i ->
        if secs_since !last_setup >= setup_every_s then begin
          let _, t = timed_setup w ~seed in
          setup_times := t :: !setup_times;
          in_setup := !in_setup +. t;
          last_setup := now_ns ()
        end;
        let o = run_untraced w s s.s_pool.(i mod pool_size) in
        incr attempted;
        if o.o_ok then ms := o.o_ms :: !ms else incr failed)
  in
  let ms = Array.of_list !ms in
  let ok = Array.length ms in
  ( !failed = 0,
    !attempted,
    !failed,
    [
      metric "runs_per_s" "1/s" (float ok /. (elapsed -. !in_setup));
      metric "run_ms_p50" "ms" (median ms);
      metric "run_ms_p90" "ms" (percentile 0.9 ms);
      metric "ok_frac" "ratio" (float ok /. float !attempted);
      metric "setup_s" "s" (median (Array.of_list !setup_times));
      metric "peak_rss_mb" "MiB" (peak_rss_mb ());
    ] )

(* The traced run's per-program layer times, one row per program, in
   walibench/out/ (written when the run ends; spans stay in memory
   until then). *)
let write_rows ~name ~seed (progs : Layers.prog array) =
  let dir = Filename.concat "walibench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" name seed)) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "ok\twall_ns\tboot_ns\tlaunch_ns\tdecode_ns\tcompile_ns\tlink_ns\t\
         interp_ns\tbusy_ns\tblocked_ns\trecord_tap_ns\tfork_ns\texec_ns\tencode_ns\t\
         crossings\tquanta\tforks\texecs\n";
      Array.iter
        (fun (p : Layers.prog) ->
          Printf.fprintf oc "%b\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n"
            p.p_ok p.p_wall p.p_boot p.p_launch p.p_decode p.p_compile p.p_link
            (Layers.interp p) p.p_busy p.p_blocked p.p_rec p.p_fork p.p_exec p.p_encode
            p.p_crossings p.p_quanta p.p_forks p.p_execs)
        progs)

let sum_by f xs = Array.fold_left (fun a x -> a + f x) 0 xs
let ratio a b = if b = 0 then 0. else float a /. float b

let trace_mode ~name w ~seed ~seconds =
  let s = make_setup w ~seed in
  let checks = ref [] in
  let check name ok detail = checks := (name, ok, detail) :: !checks in
  check "inputs" (digest (pool w ~seed) = digest s.s_pool)
    "the seed regenerates byte-identical inputs";
  let first = Array.sub s.s_pool 0 count_k in
  let c1 = Array.map (count_program w s) first in
  let c2 = Array.map (count_program w s) first in
  check "counts" (c1 = c2 && Array.for_all (fun c -> c.c_ok) c1)
    "the counting pass repeats exactly";
  (* untraced and traced runs of the same program, interleaved so host
     drift hits both sides alike *)
  let lay = Layers.create () in
  let untraced = ref [] and progs = ref [] and failed = ref 0 in
  ignore
    (run_loop ~seconds ~min_programs:count_k (fun i ->
         let p = s.s_pool.(i mod pool_size) in
         let u = run_untraced w s p in
         let tp = traced w s lay p in
         if not (u.o_ok && tp.Layers.p_ok) then incr failed;
         untraced := u :: !untraced;
         progs := tp :: !progs));
  let progs = Array.of_list (List.rev !progs) in
  let untraced = Array.of_list (List.rev !untraced) in
  write_rows ~name ~seed progs;
  let attempted = Array.length progs in
  let head = Array.sub progs 0 count_k in
  check "crossings"
    (Array.for_all2 (fun (tp : Layers.prog) c -> tp.Layers.p_crossings = c.c_calls) head c1)
    "traced crossings equal Strace.total_calls of the untraced runs";
  let wall = sum_by (fun p -> p.Layers.p_wall) progs in
  let unaccounted = ratio (wall - sum_by Layers.layer_sum progs) wall in
  check "layer-sum"
    (Float.abs unaccounted <= sum_band
    && Array.for_all (fun p -> Layers.interp p >= 0) progs)
    (Printf.sprintf "layer times cover the traced wall: %.4f unaccounted" unaccounted);
  let ok2, detail = try two_process_check () with e -> (false, Printexc.to_string e) in
  check "per-fiber" ok2 detail;
  (* the replay tap, from a recorded pass over the first programs *)
  let rl = Layers.create () in
  let recorded = Array.map (traced Kv_record s rl) first in
  check "recorded"
    (Array.for_all (fun p -> p.Layers.p_ok) recorded)
    "the recorded pass's outputs are correct";
  let names =
    Array.of_list (List.concat_map (fun p -> List.rev p.Layers.p_names) (Array.to_list head))
  in
  let fl f xs = Array.map (fun x -> float (f x)) xs in
  let med_us f xs = median (fl f xs) /. 1e3 in
  let mean f xs = float (sum_by f xs) /. float (Array.length xs) in
  let busy = sum_by (fun p -> p.Layers.p_busy) progs in
  let blocked = sum_by (fun p -> p.Layers.p_blocked) progs in
  let instr = sum_by (fun c -> c.c_instructions) c1 in
  let traced_p50 = median (fl (fun p -> p.Layers.p_wall) progs) /. 1e6 in
  let untraced_p50 = median (Array.map (fun o -> o.o_ms) untraced) in
  let p50 xs = percentile 0.5 (Layers.Samples.to_floats xs) in
  let ms =
    [
      metric "wasm.decode_us" "us" (med_us (fun p -> p.Layers.p_decode) progs);
      metric "wasm.compile_us" "us" (med_us (fun p -> p.Layers.p_compile) progs);
      metric "wasm.link_us" "us" (med_us (fun p -> p.Layers.p_link) progs);
      metric "wasm.instructions" "count" (mean (fun c -> c.c_instructions) c1);
      metric "wasm.fused_share" "ratio" (ratio (sum_by (fun c -> c.c_fused) c1) instr);
      metric "wasm.interp_ms" "ms" (median (fl Layers.interp progs) /. 1e6);
      metric "wasm.ns_per_instr" "ns" (ratio (sum_by Layers.interp head) instr);
      metric "wali.crossings" "count" (mean (fun p -> p.Layers.p_crossings) head);
      metric "wali.busy_ns_p50" "ns" (p50 lay.Layers.busy);
      metric "wali.busy_ns_p90" "ns"
        (percentile 0.9 (Layers.Samples.to_floats lay.Layers.busy));
      metric "wali.live_ns_p50" "ns" (p50 lay.Layers.live);
      metric "wali.tap_ns_p50" "ns" (p50 lay.Layers.tap);
      metric "wali.share" "ratio" (ratio busy wall);
      metric "wali.errno_frac" "ratio"
        (ratio (sum_by (fun p -> p.Layers.p_errnos) head)
           (sum_by (fun p -> p.Layers.p_crossings) head));
      metric "seccomp.check_ns" "ns" (seccomp_check_ns s.s_allow names);
      metric "engine.fork_us" "us"
        (ratio (sum_by (fun p -> p.Layers.p_fork) progs)
           (sum_by (fun p -> p.Layers.p_forks) progs) /. 1e3);
      metric "engine.exec_us" "us"
        (ratio (sum_by (fun p -> p.Layers.p_exec) progs)
           (sum_by (fun p -> p.Layers.p_execs) progs) /. 1e3);
      metric "engine.processes" "count" (mean (fun c -> c.c_processes) c1);
      metric "kernel.boot_us" "us" (med_us (fun p -> p.Layers.p_boot) progs);
      metric "kernel.blocked_frac" "ratio" (ratio blocked (busy + blocked));
      metric "kernel.blocked_ms" "ms" (median (fl (fun p -> p.Layers.p_blocked) progs) /. 1e6);
      metric "kernel.vfs_ops" "count" (mean (fun c -> c.c_vfs_ops) c1);
      metric "kernel.dcache_hit_ratio" "ratio"
        (ratio (sum_by (fun c -> c.c_dcache_hits) c1)
           (sum_by (fun c -> c.c_dcache_hits + c.c_dcache_misses) c1));
      metric "kernel.pipe_bytes" "bytes" (mean (fun c -> c.c_pipe_bytes) c1);
      metric "kernel.sock_bytes" "bytes" (mean (fun c -> c.c_sock_bytes) c1);
      metric "kernel.futex_waits" "count" (mean (fun c -> c.c_futex_waits) c1);
      metric "kernel.sig_delivered" "count" (mean (fun c -> c.c_sig_delivered) c1);
      metric "fiber.quanta" "count" (mean (fun p -> p.Layers.p_quanta) head);
      metric "fiber.idle_jumps" "count" (mean (fun p -> p.Layers.p_idle_jumps) head);
      metric "replay.tap_ns_p50" "ns" (p50 rl.Layers.rec_tap);
      metric "replay.trace_bytes" "bytes" (mean (fun p -> p.Layers.p_trace_bytes) recorded);
      metric "replay.encode_us" "us" (med_us (fun p -> p.Layers.p_encode) recorded);
      metric "trace.run_ms_p50" "ms" traced_p50;
      metric "trace.untraced_ms_p50" "ms" untraced_p50;
      metric "trace.overhead_frac" "ratio" ((traced_p50 /. untraced_p50) -. 1.);
      metric "trace.unaccounted_frac" "ratio" unaccounted;
    ]
  in
  List.iter
    (fun (name, ok, detail) ->
      Printf.eprintf "self-check %-9s %s: %s\n%!" name (if ok then "ok" else "FAILED") detail)
    (List.rev !checks);
  let checks_ok = List.for_all (fun (_, ok, _) -> ok) !checks in
  (checks_ok && !failed = 0, attempted, !failed, ms)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload compute|kv|shell|kv-record --seed N --seconds \
     S --trace 0|1";
  exit 2

let () =
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  let w = match workload_of_name name with Some w -> w | None -> usage () in
  let seed = int_opt "seed" and seconds = int_opt "seconds" in
  let trace = int_opt "trace" <> 0 in
  if seconds < 1 then usage ();
  let correct, attempted, failed, ms =
    if trace then trace_mode ~name w ~seed ~seconds
    else untraced_mode w ~seed ~seconds
  in
  print_endline (result_line ~correct ~attempted ~failed ms)
