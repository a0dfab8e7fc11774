(* End-to-end WALI smoke tests with hand-assembled Wasm modules:
   write/exit, fork, signal handler execution, /proc/self/mem
   interposition, seccomp policies. The heavier application-level tests
   live in test_wali_apps.ml and use the MiniC toolchain. *)

open Wasm
open Wasm.Ast
open Wali

let i64t = Types.T_i64
let i32t = Types.T_i32

(* Build a module that imports the given WALI syscalls and runs [body]
   as _start (with [locals]). Returns the encoded binary. *)
let build_wali_module ?(extra = fun (_ : Builder.t) -> ())
    ~(imports : (string * int) list) ~locals body : string =
  let b = Builder.create ~name:"t" () in
  ignore (Builder.add_memory b ~min:4 ~max:(Some 64));
  let idx =
    List.map
      (fun (name, arity) ->
        ( name,
          Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
            ~params:(List.init arity (fun _ -> i64t))
            ~results:[ i64t ] ))
      imports
  in
  extra b;
  let call name = Call (List.assoc name idx) in
  let start = Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals (body call) in
  Builder.export_func b "_start" start;
  Builder.export_memory b "memory" 0;
  Binary.encode (Builder.build b)

let k n = I64_const (Int64.of_int n)

let run ?policy binary =
  Interface.run_program ?policy ~binary ~argv:[ "test" ] ~env:[] ()

(* write(1, "hi\n", 3); exit_group(0) *)
let test_hello () =
  let binary =
    build_wali_module
      ~imports:[ ("write", 3); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [
          (* place "hi\n" at address 64 *)
          I32_const 64l; I32_const 0x0A6968l; I32_store { offset = 0; align = 2 };
          k 1; k 64; k 3; call "write"; Drop;
          k 0; call "exit_group"; Drop;
        ])
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "stdout" "hi\n" out;
  Alcotest.(check int) "status" 0 status

let test_exit_code () =
  let binary =
    build_wali_module
      ~imports:[ ("exit_group", 1) ]
      ~locals:[]
      (fun call -> [ k 7; call "exit_group"; Drop ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "status" (Kernel.Ktypes.wexit_status 7) status

(* fork: parent writes P, child writes C, parent waits. *)
let test_fork () =
  let binary =
    build_wali_module
      ~imports:[ ("write", 3); ("fork", 0); ("wait4", 4); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          I32_const 64l; I32_const (Int32.of_int (Char.code 'C')); I32_store8 { offset = 0; align = 0 };
          I32_const 65l; I32_const (Int32.of_int (Char.code 'P')); I32_store8 { offset = 0; align = 0 };
          call "fork"; Local_set 0;
          Local_get 0; I64_eqz;
          If
            ( Bt_none,
              [ (* child *) k 1; k 64; k 1; call "write"; Drop; k 0; call "exit_group"; Drop ],
              [
                (* parent: wait for child then write P *)
                k (-1); k 0; k 0; k 0; call "wait4"; Drop;
                k 1; k 65; k 1; call "write"; Drop;
              ] );
          k 0; call "exit_group"; Drop;
        ])
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "child before parent" "CP" out;
  Alcotest.(check int) "status" 0 status

(* Signal handler runs: register handler for SIGUSR1 via rt_sigaction,
   kill(self), spin until flag set by handler, write "S". *)
let test_signal_handler () =
  let binary =
    let b = Builder.create ~name:"sig" () in
    ignore (Builder.add_memory b ~min:4 ~max:(Some 64));
    let imp name arity =
      Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
        ~params:(List.init arity (fun _ -> i64t))
        ~results:[ i64t ]
    in
    let sigaction = imp "rt_sigaction" 4 in
    let getpid = imp "getpid" 0 in
    let kill = imp "kill" 2 in
    let write = imp "write" 3 in
    let exit_group = imp "exit_group" 1 in
    ignore (Builder.add_table b ~min:4 ~max:(Some 4));
    (* handler(signo): store 1 at address 128 *)
    let handler =
      Builder.func b ~name:"handler" ~params:[ i32t ] ~results:[] ~locals:[]
        [ I32_const 128l; I32_const 1l; I32_store { offset = 0; align = 2 } ]
    in
    (* table slots 0/1 are reserved: they collide with SIG_DFL/SIG_IGN in
       the sigaction handler field, so the toolchain never places function
       pointers there. *)
    Builder.add_elem b ~table:0 ~offset:2 [ handler ];
    let start =
      Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[ i64t ]
        [
          (* sigaction struct at 64: handler=2 (table idx), flags=0, mask=0 *)
          I32_const 64l; I32_const 2l; I32_store { offset = 0; align = 2 };
          I32_const 68l; I32_const 0l; I32_store { offset = 0; align = 2 };
          I32_const 72l; I64_const 0L; I64_store { offset = 0; align = 3 };
          k 10 (* SIGUSR1 *); k 64; k 0; k 16; Call sigaction; Drop;
          (* kill(getpid(), SIGUSR1) *)
          Call getpid; k 10; Call kill; Drop;
          (* spin until mem[128] == 1 (handler runs at a loop safepoint) *)
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      I32_const 128l; I32_load { offset = 0; align = 2 };
                      I32_const 1l; I32_relop Eq; Br_if 1; Br 0;
                    ] );
              ] );
          (* write "S" *)
          I32_const 200l; I32_const (Int32.of_int (Char.code 'S'));
          I32_store8 { offset = 0; align = 0 };
          k 1; k 200; k 1; Call write; Drop;
          k 0; Call exit_group; Drop;
        ]
    in
    Builder.export_func b "_start" start;
    Builder.export_memory b "memory" 0;
    Binary.encode (Builder.build b)
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "handler ran" "S" out;
  Alcotest.(check int) "status" 0 status

(* Unhandled SIGUSR1 kills the process with a signal status. *)
let test_default_term () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("kill", 2); ("exit_group", 1) ]
      ~locals:[ i64t; i64t ]
      (fun call ->
        [
          call "getpid"; Local_set 0;
          Local_get 0; k 10; call "kill"; Drop;
          (* spin forever; safepoint delivers the fatal signal *)
          Block (Bt_none, [ Loop (Bt_none, [ Br 0 ]) ]);
          k 0; call "exit_group"; Drop;
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "killed by SIGUSR1" (Kernel.Ktypes.wsignal_status 10) status

(* /proc/self/mem must be refused by the WALI layer (EACCES = -13). *)
let test_proc_self_mem_blocked () =
  let binary =
    build_wali_module
      ~imports:[ ("open", 3); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          I32_const 64l; I32_const 0x6F72702Fl; I32_store { offset = 0; align = 2 };
          I32_const 68l; I32_const 0x65732F63l; I32_store { offset = 0; align = 2 };
          I32_const 72l; I32_const 0x6D2F666Cl; I32_store { offset = 0; align = 2 };
          I32_const 76l; I32_const 0x006D65l; I32_store { offset = 0; align = 2 };
          k 64; k 0; k 0; call "open";
          (* exit with -(result) so the test can observe the errno *)
          I64_const (-1L); I64_binop Mul; call "exit_group"; Drop;
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "EACCES" (Kernel.Ktypes.wexit_status 13) status

(* seccomp-like dynamic policy: deny getpid with EPERM. *)
let test_seccomp_deny () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [ call "getpid"; I64_const (-1L); I64_binop Mul; call "exit_group"; Drop ])
  in
  let policy = Seccomp.allow_all () in
  Seccomp.deny policy "getpid" ();
  let status, _, _ = run ~policy binary in
  Alcotest.(check int) "EPERM" (Kernel.Ktypes.wexit_status 1) status;
  Alcotest.(check (list (pair string int))) "denial recorded"
    [ ("getpid", 1) ]
    (Seccomp.denied_counts policy)

(* mmap returns page-aligned sandboxed memory that is readable/writable. *)
let test_mmap () =
  let binary =
    build_wali_module
      ~imports:[ ("mmap", 6); ("munmap", 2); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          (* p = mmap(0, 8192, RW, ANON|PRIVATE, -1, 0) *)
          k 0; k 8192; k 3; k 0x22; k (-1); k 0; call "mmap"; Local_set 0;
          (* store 77 through p *)
          Local_get 0; I32_wrap_i64; I32_const 77l; I32_store { offset = 0; align = 2 };
          (* exit(load p == 77 ? munmap(p,8192) : 1) *)
          Local_get 0; I32_wrap_i64; I32_load { offset = 0; align = 2 };
          I32_const 77l; I32_relop Eq;
          If
            ( Bt_none,
              [ Local_get 0; k 8192; call "munmap"; call "exit_group"; Drop ],
              [ k 1; call "exit_group"; Drop ] );
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "mmap rw ok" 0 status

(* Unknown syscalls resolve as auto-generated stubs returning -ENOSYS. *)
let test_enosys_stub () =
  let binary =
    build_wali_module
      ~imports:[ ("epoll_ctl", 6); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [
          k 0; k 0; k 0; k 0; k 0; k 0; call "epoll_ctl";
          I64_const (-1L); I64_binop Mul; call "exit_group"; Drop;
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "ENOSYS" (Kernel.Ktypes.wexit_status 38) status

(* The strace profile records what ran — the Fig 2 data source. *)
let test_strace_counts () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [
          call "getpid"; Drop; call "getpid"; Drop; call "getpid"; Drop;
          k 0; call "exit_group"; Drop;
        ])
  in
  let trace = Strace.create () in
  let _ = Interface.run_program ~trace ~binary ~argv:[ "t" ] ~env:[] () in
  Alcotest.(check int) "getpid count" 3
    (List.assoc "getpid" (Strace.profile trace));
  Alcotest.(check bool) "exit traced" true
    (List.mem_assoc "exit_group" (Strace.profile trace))

(* argv/env transfer methods (§3.4). *)
let test_argv_env () =
  let b = Builder.create ~name:"argv" () in
  ignore (Builder.add_memory b ~min:2 ~max:(Some 16));
  let get_argc =
    Builder.import_func b ~module_:"wali" ~name:"get_argc" ~params:[] ~results:[ i32t ]
  in
  let get_argv_len =
    Builder.import_func b ~module_:"wali" ~name:"get_argv_len" ~params:[ i32t ]
      ~results:[ i32t ]
  in
  let copy_argv =
    Builder.import_func b ~module_:"wali" ~name:"copy_argv" ~params:[ i32t; i32t ]
      ~results:[ i32t ]
  in
  let write =
    Builder.import_func b ~module_:"wali" ~name:"SYS_write"
      ~params:[ i64t; i64t; i64t ] ~results:[ i64t ]
  in
  let exit_group =
    Builder.import_func b ~module_:"wali" ~name:"SYS_exit_group"
      ~params:[ i64t ] ~results:[ i64t ]
  in
  let start =
    Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[ i32t ]
      [
        (* copy argv[1] to 256 and write it (len-1, no NUL) *)
        I32_const 256l; I32_const 1l; Call copy_argv; Drop;
        I32_const 1l; Call get_argv_len; I32_const 1l; I32_binop Sub; Local_set 0;
        I64_const 1L; I64_const 256L; Local_get 0; I64_extend_i32 ZX; Call write; Drop;
        (* exit(argc) *)
        Call get_argc; I64_extend_i32 SX; Call exit_group; Drop;
      ]
  in
  Builder.export_func b "_start" start;
  Builder.export_memory b "memory" 0;
  let binary = Binary.encode (Builder.build b) in
  let status, out, _ =
    Interface.run_program ~binary ~argv:[ "prog"; "world" ] ~env:[ "A=1" ] ()
  in
  Alcotest.(check string) "argv[1]" "world" out;
  Alcotest.(check int) "argc" (Kernel.Ktypes.wexit_status 2) status

(* A module that exports only memory has no entry point: the initial
   process traps with SIGILL status, whether run or recorded, instead of
   an exception escaping the scheduler. *)
let test_missing_start () =
  let b = Builder.create ~name:"t" () in
  ignore (Builder.add_memory b ~min:1 ~max:None);
  Builder.export_memory b "memory" 0;
  let binary = Binary.encode (Builder.build b) in
  let sigill = Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigill in
  let status, _, _ = run binary in
  Alcotest.(check int) "run_program status" sigill status;
  let r = Replay.Recorder.record ~binary ~argv:[ "test" ] ~env:[] () in
  Alcotest.(check int) "record status" sigill r.Replay.Recorder.r_status

let tests =
  [
    Alcotest.test_case "hello via SYS_write" `Quick test_hello;
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "fork + wait4" `Quick test_fork;
    Alcotest.test_case "async signal handler at safepoint" `Quick test_signal_handler;
    Alcotest.test_case "default disposition terminates" `Quick test_default_term;
    Alcotest.test_case "/proc/self/mem interposed" `Quick test_proc_self_mem_blocked;
    Alcotest.test_case "seccomp-like deny" `Quick test_seccomp_deny;
    Alcotest.test_case "mmap/munmap in linear memory" `Quick test_mmap;
    Alcotest.test_case "ENOSYS passthrough stubs" `Quick test_enosys_stub;
    Alcotest.test_case "strace profile counts" `Quick test_strace_counts;
    Alcotest.test_case "argv/env transfer" `Quick test_argv_env;
    Alcotest.test_case "module without _start traps" `Quick test_missing_start;
  ]
