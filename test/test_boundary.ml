(* The WALI boundary under hostile arguments: the one syscall table, a
   table-driven sweep of adversarial arguments over every entry, one
   regression test per host exception that used to escape, the
   native/RV32 runners ending a blocked guest in [Fiber.Deadlock]
   instead of spinning, unbounded Wasm recursion and native/RV32 guest
   faults ending in the status of a Wasm trap. *)

open Wali

let errno e = Int64.of_int (-Kernel.Errno.to_code e)

(* A string at this address names a symlink in every fresh kernel. *)
let path_addr = 4096
let link_path = "/tmp/link"

(* Run [f] against a minimal process (one 64 KiB page of memory, stdio
   on the console) in a fresh kernel, inside the scheduler. *)
let with_proc f =
  Virt.Guest.with_proc ~pages:1 ~heap_base:32768 (fun eng ctx m ->
      ignore
        (Kernel.Syscalls.mkdirat ctx ~dirfd:Kernel.Syscalls.at_fdcwd ~path:"/tmp"
           ~mode:0o777);
      ignore
        (Kernel.Syscalls.symlinkat ctx ~target:"/etc/target"
           ~dirfd:Kernel.Syscalls.at_fdcwd ~path:link_path);
      Wasm.Rt.Memory.write_string (Wasm.Rt.memory0 m) ~addr:path_addr
        (link_path ^ "\000");
      f eng ctx m)

let i64s l = Array.of_list (List.map (fun v -> Wasm.Values.I64 v) l)

let dispatch name args =
  with_proc (fun eng _ m ->
      match Interface.dispatch eng name m (i64s args) with
      | Wasm.Rt.H_return [ Wasm.Values.I64 r ] -> r
      | _ -> Alcotest.fail (name ^ ": not a plain return"))

(* ---- the one table ---- *)

let test_one_table () =
  let names = List.map (fun (e : Interface.syscall) -> e.Interface.name) Interface.syscalls in
  Alcotest.(check int) "implemented" 144 Interface.implemented_count;
  Alcotest.(check int) "each name declared once" 144
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      match Interface.find n with
      | Some e -> Alcotest.(check bool) (n ^ " implemented") true e.Interface.implemented
      | None -> Alcotest.fail (n ^ " not in the table"))
    names;
  Alcotest.(check int) "table = implemented + ENOSYS stubs" 231 Interface.total_count;
  match Interface.find "epoll_create1" with
  | Some e -> Alcotest.(check bool) "stub" false e.Interface.implemented
  | None -> Alcotest.fail "epoll_create1 stub missing"

(* ---- regressions: each escaped as a host exception before ---- *)

let test_readlink_negative_bufsiz () =
  let ptr = Int64.of_int path_addr and out = 8192L in
  Alcotest.(check int64) "readlink" (errno Kernel.Errno.EINVAL)
    (dispatch "readlink" [ ptr; out; -1L ]);
  Alcotest.(check int64) "readlinkat" (errno Kernel.Errno.EINVAL)
    (dispatch "readlinkat" [ -100L; ptr; out; -1L ]);
  Alcotest.(check int64) "positive bufsiz still reads the link"
    (Int64.of_int (String.length "/etc/target"))
    (dispatch "readlink" [ ptr; out; 64L ])

let test_fcntl_dupfd_negative () =
  Alcotest.(check int64) "F_DUPFD from -1" (errno Kernel.Errno.EINVAL)
    (dispatch "fcntl" [ 0L; Int64.of_int Kernel.Ktypes.f_dupfd; -1L ]);
  (* a full table answers EMFILE without taking a reference *)
  with_proc (fun eng ctx m ->
      let fdtab = ctx.Kernel.Syscalls.t.Kernel.Task.fdtab in
      let d = Option.get (Kernel.Fdtab.get fdtab 0) in
      let refs = d.Kernel.Fdtab.d_refs in
      fdtab.Kernel.Fdtab.max_fds <- 3;
      let r =
        Interface.dispatch eng "fcntl" m
          (i64s [ 0L; Int64.of_int Kernel.Ktypes.f_dupfd; 0L ])
      in
      let emfile = Wasm.Rt.H_return [ Wasm.Values.I64 (errno Kernel.Errno.EMFILE) ] in
      Alcotest.(check bool) "fcntl EMFILE" true (r = emfile);
      Alcotest.(check bool) "dup EMFILE" true
        (Interface.dispatch eng "dup" m (i64s [ 0L ]) = emfile);
      Alcotest.(check int) "no leaked reference" refs d.Kernel.Fdtab.d_refs)

let test_sendfile_size_t_count () =
  let out =
    with_proc (fun eng ctx m ->
        let fd =
          Result.get_ok
            (Kernel.Syscalls.openat ctx ~dirfd:Kernel.Syscalls.at_fdcwd ~path:"/tmp/src"
               ~flags:Kernel.Ktypes.(o_creat lor o_rdwr) ~mode:0o600)
        in
        let data = Bytes.of_string "hello" in
        ignore (Kernel.Syscalls.write ctx ~fd ~buf:data ~off:0 ~len:5);
        ignore (Kernel.Syscalls.lseek ctx ~fd ~offset:0 ~whence:0);
        let r =
          Interface.dispatch eng "sendfile" m (i64s [ 1L; Int64.of_int fd; 0L; -1L ])
        in
        (r, Kernel.Task.console_output ctx.Kernel.Syscalls.k))
  in
  Alcotest.(check bool) "count -1 copies the whole file" true
    (fst out = Wasm.Rt.H_return [ Wasm.Values.I64 5L ]);
  Alcotest.(check string) "to stdout" "hello" (snd out)

(* ---- hostile arguments over every entry ---- *)

let hostile =
  [| 0L; -1L; 0xFFFFFFFFL; 0x7FFFFFFFL; 4096L; -100L; Int64.min_int; Int64.shift_left 1L 40 |]

(* fork/vfork/clone/execve/exit/exit_group return engine outcomes; an
   empty poll/select set with a huge finite timeout wakes every
   [Syscalls.poll_tick_ns] of virtual time, so it would run ~10^10
   scheduler rounds before timing out. *)
let skipped =
  [ "fork"; "vfork"; "clone"; "execve"; "exit"; "exit_group"; "poll"; "ppoll";
    "select"; "pselect6" ]

let test_hostile_arguments () =
  let entries =
    List.filter
      (fun (e : Interface.syscall) -> not (List.mem e.Interface.name skipped))
      Interface.syscalls
  in
  for seed = 1 to 30 do
    let rng = Random.State.make [| seed |] in
    List.iter
      (fun (e : Interface.syscall) ->
        let args =
          List.init e.Interface.arity (fun _ ->
              hostile.(Random.State.int rng (Array.length hostile)))
        in
        let call () =
          with_proc (fun eng _ m ->
              ignore (Interface.dispatch eng e.Interface.name m (i64s args)))
        in
        match call () with
        | () | (exception Wasm.Values.Trap _)
        | (exception Engine.Killed_by _)
        | (exception Fiber.Deadlock _) ->
            ()
        | exception ex ->
            Alcotest.failf "seed %d: %s(%s) escaped as %s" seed e.Interface.name
              (String.concat ", " (List.map Int64.to_string args))
              (Printexc.to_string ex))
      entries
  done

(* ---- a blocked guest ends the run in Fiber.Deadlock ---- *)

let paused = {| int main() { syscall("pause"); return 0; } |}

let deadlocks name run =
  match run () with
  | () -> Alcotest.fail (name ^ ": a paused program finished")
  | exception Fiber.Deadlock _ -> ()

let test_native_deadlock () =
  deadlocks "native" (fun () ->
      ignore (Virt.Native_run.run (Minic.Mc_native.compile (Minic.parse_with_libc paused))))

let test_rv_deadlock () =
  deadlocks "rv32" (fun () ->
      ignore (Virt.Rv_run.run (Minic.Mc_rv.compile (Minic.parse_with_libc paused))))

(* ---- unbounded recursion ends in a trap ---- *)

let test_wasm_call_depth () =
  let binary =
    Minic.to_wasm_binary
      {| int f(int n) { return f(n + 1) + 1; }
         int main() { return f(0); } |}
  in
  let status, _, _ = Interface.run_program ~binary ~argv:[ "deep" ] ~env:[] () in
  Alcotest.(check int) "wasm recursion"
    (Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigill) status

(* ---- guest faults on native and RV32 end in a status ---- *)

let native src = Virt.Native_run.run (Minic.Mc_native.compile (Minic.parse_with_libc src))
let rv32 src = Virt.Rv_run.run (Minic.Mc_rv.compile (Minic.parse_with_libc src))

(* the status the engine gives a Wasm trap *)
let traps name (r : Virt.Guest.result) =
  Alcotest.(check int) name (Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigill)
    r.Virt.Guest.r_status

let test_native_out_of_bounds_load () =
  traps "native load"
    (native
       {| int main() { char *p = (char*)2147483000; printi(p[100000]); return 0; } |})

let test_native_memset_past_end () =
  traps "native memset" (native {| int main() { memset((char*)2147483000, 1, 100); return 0; } |})

let test_native_division_by_zero () =
  traps "native 5 / 0"
    (native {| int main() { int z = 0; printi(5 / z); return 0; } |})

let test_rv_memfill_bad_pointer () =
  traps "rv32 memfill" (rv32 {| int main() { memset((char*)2147483000, 1, 100); return 0; } |})

let test_rv_argv_copy_bad_pointer () =
  (* an unwritable buffer is a failed copy (-1), as on every backend *)
  let r =
    rv32
      {| int main() { printi(argv_copy((char*)2147483647, 0)); return 0; } |}
  in
  Alcotest.(check (pair int string)) "rv32 argv_copy" (0, "-1")
    (r.Virt.Guest.r_status, r.Virt.Guest.r_output)

let tests =
  [
    Alcotest.test_case "each syscall declared once" `Quick test_one_table;
    Alcotest.test_case "readlink negative bufsiz is EINVAL" `Quick
      test_readlink_negative_bufsiz;
    Alcotest.test_case "fcntl F_DUPFD -1 is EINVAL; EMFILE takes no ref" `Quick
      test_fcntl_dupfd_negative;
    Alcotest.test_case "sendfile count is a size_t" `Quick test_sendfile_size_t_count;
    Alcotest.test_case "hostile arguments never escape" `Quick test_hostile_arguments;
    Alcotest.test_case "blocked native program deadlocks" `Quick test_native_deadlock;
    Alcotest.test_case "blocked RV32 program deadlocks" `Quick test_rv_deadlock;
    Alcotest.test_case "unbounded Wasm recursion traps" `Quick test_wasm_call_depth;
    Alcotest.test_case "native out-of-bounds load traps" `Quick
      test_native_out_of_bounds_load;
    Alcotest.test_case "native memset past the end traps" `Quick
      test_native_memset_past_end;
    Alcotest.test_case "native division by zero traps" `Quick
      test_native_division_by_zero;
    Alcotest.test_case "RV32 memfill to a bad pointer traps" `Quick
      test_rv_memfill_bad_pointer;
    Alcotest.test_case "RV32 argv_copy to a bad pointer fails" `Quick
      test_rv_argv_copy_bad_pointer;
  ]
