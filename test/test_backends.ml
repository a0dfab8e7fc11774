(* Differential testing of the three MiniC backends: the same source must
   behave identically on Wasm+WALI, native closures, and the RV32
   emulator — the compiler-backend-reusability story, checked. *)

let run_wasm ?(argv = [ "prog" ]) src =
  let binary = Minic.to_wasm_binary src in
  let status, out, _ = Wali.Interface.run_program ~binary ~argv ~env:[] () in
  (status, out)

let run_native ?(argv = [ "prog" ]) src =
  let c = Minic.Mc_native.compile (Minic.parse_with_libc src) in
  let r = Virt.Native_run.run ~argv c in
  (r.Virt.Guest.r_status, r.Virt.Guest.r_output)

let run_rv ?(argv = [ "prog" ]) src =
  let img = Minic.Mc_rv.compile (Minic.parse_with_libc src) in
  let r = Virt.Rv_run.run ~argv img in
  (r.Virt.Guest.r_status, r.Virt.Guest.r_output)

(* Wasm prints [expected] and ends with packed [status]; native and RV32
   give exactly the status and output Wasm gives. *)
let check_all ?argv ?(status = 0) src expected =
  let sw, ow = run_wasm ?argv src in
  Alcotest.(check string) "wasm out" expected ow;
  Alcotest.(check int) "wasm status" status sw;
  List.iter
    (fun (name, run) ->
      let s, o = run ?argv src in
      Alcotest.(check string) (name ^ " out = wasm") ow o;
      Alcotest.(check int) (name ^ " status = wasm") sw s)
    [ ("native", run_native); ("rv", run_rv) ]

let test_compute () =
  check_all
    {|
      int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
      int main() {
        printi(fib(14)); printc('\n');
        int x = 0;
        for (int i = 0; i < 100; i = i + 1) { x = x + i * i; }
        printi(x); printc('\n');
        printi(100 / 7); printc('\n');
        printi(100 % 7); printc('\n');
        printi(-100 / 7); printc('\n');
        printi(1 << 20); printc('\n');
        printi(-16 >> 2); printc('\n');
        return 0;
      }
    |}
    "377\n328350\n14\n2\n-14\n1048576\n-4\n"

let test_strings_and_heap () =
  check_all
    {|
      int main() {
        char *buf = malloc(64);
        strcpy(buf, "wali");
        strcat(buf, "/");
        strcat(buf, "wazi");
        println(buf);
        printi(strcmp(buf, "wali/wazi")); printc('\n');
        printi(atoi("12345")); printc('\n');
        char *big = malloc(100000);
        big[99999] = 'Z';
        printi(big[99999]); printc('\n');
        free(big); free(buf);
        return 0;
      }
    |}
    "wali/wazi\n0\n12345\n90\n"

let test_syscalls_files () =
  check_all
    {|
      int main() {
        int fd = open("/tmp/x", 66, 438);
        write(fd, "abcdef", 6);
        lseek(fd, 1, 0);
        char *b = malloc(8);
        int n = read(fd, b, 3);
        b[n] = 0;
        println(b);
        close(fd);
        printi(getpid()); printc('\n');
        return 0;
      }
    |}
    "bcd\n1\n"

let test_argv_across_backends () =
  check_all ~argv:[ "prog"; "x"; "yy" ]
    {|
      int main(int argc, char **argv) {
        printi(argc); printc('\n');
        printi(strlen(argv[2])); printc('\n');
        println(argv[1]);
        return 0;
      }
    |}
    "3\n2\nx\n"

let test_memops () =
  check_all
    {|
      int src[8];
      int dst[8];
      int main() {
        for (int i = 0; i < 8; i = i + 1) { src[i] = i * 3; }
        memcpy((char*)dst, (char*)src, 32);
        int sum = 0;
        for (int i = 0; i < 8; i = i + 1) { sum = sum + dst[i]; }
        printi(sum); printc('\n');
        memset((char*)dst, 0, 32);
        printi(dst[5]); printc('\n');
        return 0;
      }
    |}
    "84\n0\n"

let test_calli_across_backends () =
  check_all
    {|
      int twice(int x) { return x * 2; }
      int thrice(int x) { return x * 3; }
      int main() {
        int f = fnptr(twice);
        int g = fnptr(thrice);
        printi(calli(f, 10) + calli(g, 10)); printc('\n');
        return 0;
      }
    |}
    "50\n"

let test_rv_fork () =
  (* fork works under emulation too (guest state is cloneable) *)
  let status, out =
    run_rv
      {|
        int st[1];
        int main() {
          int pid = fork();
          if (pid == 0) { print("child\n"); exit(0); }
          waitpid(pid, st, 0);
          print("parent\n");
          return 0;
        }
      |}
  in
  Alcotest.(check string) "rv fork" "child\nparent\n" out;
  Alcotest.(check int) "status" 0 status

let test_rv_fork_heap () =
  (* the child's first mapping must not land on the parent's live heap *)
  let src =
    {|
      int st[1];
      int main() {
        char *a = malloc(100000);
        strcpy(a, "parent heap");
        int pid = fork();
        if (pid == 0) {
          char *b = malloc(100000);
          strcpy(b, "child heap");
          println(a);
          exit(0);
        }
        waitpid(pid, st, 0);
        println(a);
        return 0;
      }
    |}
  in
  let expected = (0, "parent heap\nparent heap\n") in
  Alcotest.(check (pair int string)) "wasm" expected (run_wasm src);
  Alcotest.(check (pair int string)) "rv" expected (run_rv src)

let test_wrapping_arithmetic () =
  (* i32 overflow behaves identically everywhere *)
  check_all
    {|
      int main() {
        int x = 2147483647;
        x = x + 1;
        printi(x); printc('\n');
        int y = 1;
        for (int i = 0; i < 40; i = i + 1) { y = y * 3; }
        printi(y); printc('\n');
        return 0;
      }
    |}
    "-2147483648\n689956897\n"

(* ---- one guest lifecycle: signals, exit, faults, argv/env ---- *)

let test_sigterm_self_kill () =
  (* default action on return from kill: nothing runs after it *)
  check_all ~status:(Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigterm)
    {|
      int main() {
        print("before\n");
        kill(getpid(), 15);
        print("after\n");
        return 0;
      }
    |}
    "before\n"

let test_sigusr1_handler () =
  check_all
    {|
      int on_usr1(int s) { printi(s); printc('\n'); return 0; }
      int main() {
        signal(10, fnptr(on_usr1));
        kill(getpid(), 10);
        return 0;
      }
    |}
    "10\n"

let test_handler_keeps_state () =
  (* three deliveries on syscall return, each amid live locals *)
  check_all
    {|
      int count;
      int on_usr1(int s) { count = count + s; return 0; }
      int main() {
        signal(10, fnptr(on_usr1));
        int a = 7;
        int b = 11;
        for (int i = 0; i < 3; i = i + 1) { a = a + kill(getpid(), 10); b = b * 2; }
        printi(a); printc(' '); printi(b); printc(' '); printi(count); printc('\n');
        return 0;
      }
    |}
    "7 88 30\n"

let test_exit_code () =
  check_all ~status:(Kernel.Ktypes.wexit_status 7)
    {|
      int main() { print("x\n"); exit(7); print("y\n"); return 0; }
    |}
    "x\n"

let test_out_of_bounds_load () =
  check_all ~status:(Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigill)
    {|
      int main() {
        char *p = (char*)2147483000;
        printi(p[100000]);
        return 0;
      }
    |}
    ""

let test_argv_copy_bad_pointer () =
  check_all
    {|
      int main() {
        printi(argv_copy((char*)2147483647, 0)); printc('\n');
        return 0;
      }
    |}
    "-1\n"

let tests =
  [
    Alcotest.test_case "compute kernels agree" `Quick test_compute;
    Alcotest.test_case "strings + heap agree" `Quick test_strings_and_heap;
    Alcotest.test_case "file syscalls agree" `Quick test_syscalls_files;
    Alcotest.test_case "argv agrees" `Quick test_argv_across_backends;
    Alcotest.test_case "memcpy/memset agree" `Quick test_memops;
    Alcotest.test_case "calli agrees" `Quick test_calli_across_backends;
    Alcotest.test_case "fork under RV emulation" `Quick test_rv_fork;
    Alcotest.test_case "RV fork child keeps the parent's heap" `Quick
      test_rv_fork_heap;
    Alcotest.test_case "i32 wrapping agrees" `Quick test_wrapping_arithmetic;
    Alcotest.test_case "SIGTERM self-kill agrees" `Quick test_sigterm_self_kill;
    Alcotest.test_case "SIGUSR1 handler agrees" `Quick test_sigusr1_handler;
    Alcotest.test_case "handlers keep the interrupted state" `Quick
      test_handler_keeps_state;
    Alcotest.test_case "exit(7) agrees" `Quick test_exit_code;
    Alcotest.test_case "out-of-bounds load agrees" `Quick test_out_of_bounds_load;
    Alcotest.test_case "argv_copy to a bad pointer agrees" `Quick
      test_argv_copy_bad_pointer;
  ]
