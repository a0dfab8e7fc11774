(* The application suite running on WALI: every Table 1 analogue must
   execute faithfully; the porting analysis must reproduce the Table 1
   shape (WALI runs everything; WASI almost nothing; WASIX in between). *)

let contains = Astring_contains.contains

let run_app name =
  match Apps.Suite.find name with
  | None -> Alcotest.failf "no app %s" name
  | Some a ->
      let status, out = Apps.Suite.run a in
      (a, status, out)

let check_app name =
  let a, status, out = run_app name in
  List.iter
    (fun sub ->
      if not (contains out sub) then
        Alcotest.failf "%s: output %S does not contain %S" name out sub)
    a.Apps.Suite.a_expect;
  ignore status

let test_app name () = check_app name

let test_ltp_passes () =
  let _, status, out = run_app "ltp" in
  Alcotest.(check int) "ltp exit 0" 0 status;
  Alcotest.(check bool) "no failures" true (contains out "0 failed");
  Alcotest.(check bool) "many checks ran" true (contains out "passed")

let test_porting_table () =
  let rows = Apps.Suite.porting_table () in
  (* WALI runs everything *)
  List.iter
    (fun r ->
      match r.Apps.Suite.pr_wali with
      | None -> ()
      | Some f ->
          Alcotest.failf "%s blocked on WALI by %s"
            r.Apps.Suite.pr_app.Apps.Suite.a_name f)
    rows;
  let missing api r =
    match (api : [ `Wasi | `Wasix ]) with
    | `Wasi -> r.Apps.Suite.pr_wasi
    | `Wasix -> r.Apps.Suite.pr_wasix
  in
  let get name =
    List.find (fun r -> r.Apps.Suite.pr_app.Apps.Suite.a_name = name) rows
  in
  (* the paper's headline rows *)
  Alcotest.(check (option string)) "bash blocked on WASI by signals"
    (Some "rt_sigaction") (missing `Wasi (get "minish"));
  Alcotest.(check (option string)) "lua blocked on WASI by dup"
    (Some "dup") (missing `Wasi (get "calc"));
  Alcotest.(check (option string)) "sqlite blocked by mremap"
    (Some "mremap") (missing `Wasix (get "minidb"));
  Alcotest.(check (option string)) "memcached blocked by mmap"
    (Some "mmap") (missing `Wasix (get "kvd"));
  Alcotest.(check bool) "openssh blocked by users" true
    (match missing `Wasix (get "sshd-lite") with
    | Some ("setsid" | "setuid") -> true
    | _ -> false);
  Alcotest.(check (option string)) "zlib works everywhere" None
    (missing `Wasi (get "zpack"));
  Alcotest.(check (option string)) "paho works on WASIX" None
    (missing `Wasix (get "mqttc"));
  Alcotest.(check (option string)) "libevent blocked by socketpair"
    (Some "socketpair") (missing `Wasix (get "evloop"));
  Alcotest.(check (option string)) "openssl blocked by ioctl"
    (Some "ioctl") (missing `Wasix (get "crypt"));
  (* aggregate shape: WASI blocks most apps, WALI none *)
  let blocked api =
    List.length (List.filter (fun r -> missing api r <> None) rows)
  in
  Alcotest.(check bool) "WASI blocks most of the suite" true
    (blocked `Wasi >= 10);
  Alcotest.(check bool) "WASIX blocks fewer" true (blocked `Wasix < blocked `Wasi)

let test_import_section_is_manifest () =
  (* name-bound imports = static syscall manifest (paper §3.6) *)
  match Apps.Suite.find "minish" with
  | None -> Alcotest.fail "minish missing"
  | Some a ->
      let reqs = Apps.Suite.required_syscalls (Apps.Suite.binary_of a) in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " in manifest") true (List.mem s reqs))
        [ "fork"; "execve"; "wait4"; "rt_sigaction"; "pipe"; "dup2"; "kill" ]

let test_strace_profile_of_suite () =
  (* Fig 2 data source: run an app under trace, see a realistic profile *)
  match Apps.Suite.find "minidb" with
  | None -> Alcotest.fail "minidb missing"
  | Some a ->
      let trace = Wali.Strace.create () in
      let _ = Apps.Suite.run ~trace a in
      let profile = Wali.Strace.profile trace in
      Alcotest.(check bool) "pwrite dominates" true
        (List.mem_assoc "pwrite64" profile);
      Alcotest.(check bool) "mremap present" true
        (List.mem_assoc "mremap" profile);
      Alcotest.(check bool) "several unique syscalls" true
        (List.length profile >= 8)

(* The shared target loader answers a bad path or app name with an
   error, never an exception. *)
let test_target_loader () =
  let error = function
    | Ok _ -> Alcotest.fail "expected a load error"
    | Error e -> e
  in
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "no-such.wasm"
  in
  let e = error (Apps.Suite.load (`File missing)) in
  Alcotest.(check bool) "missing file: message names the path" true
    (contains e missing);
  let e = error (Apps.Suite.load (`App "no-such-app")) in
  Alcotest.(check bool) "unknown app: message names it" true
    (contains e "unknown app no-such-app");
  Alcotest.(check bool) "unknown app: message lists the suite" true
    (contains e "minish, calc")

let tests =
  [
    Alcotest.test_case "minish (bash)" `Quick (test_app "minish");
    Alcotest.test_case "calc (lua)" `Quick (test_app "calc");
    Alcotest.test_case "minidb (sqlite)" `Quick (test_app "minidb");
    Alcotest.test_case "kvd (memcached)" `Quick (test_app "kvd");
    Alcotest.test_case "sshd-lite (openssh)" `Quick (test_app "sshd-lite");
    Alcotest.test_case "mk (make)" `Quick (test_app "mk");
    Alcotest.test_case "edlite (vim)" `Quick (test_app "edlite");
    Alcotest.test_case "mqttc (paho-mqtt)" `Quick (test_app "mqttc");
    Alcotest.test_case "zpack (zlib)" `Quick (test_app "zpack");
    Alcotest.test_case "evloop (libevent)" `Quick (test_app "evloop");
    Alcotest.test_case "tui (ncurses)" `Quick (test_app "tui");
    Alcotest.test_case "crypt (openssl)" `Quick (test_app "crypt");
    Alcotest.test_case "ltp conformance suite" `Quick test_ltp_passes;
    Alcotest.test_case "porting matrix (Table 1 shape)" `Quick test_porting_table;
    Alcotest.test_case "import section is the manifest" `Quick test_import_section_is_manifest;
    Alcotest.test_case "strace profile (Fig 2 source)" `Quick test_strace_profile_of_suite;
    Alcotest.test_case "target loader errors" `Quick test_target_loader;
  ]
