(** Dynamic soundness check for the static analyzer: run the module
    under its *derived* policy with tracing and diff the observed
    syscall profile against the static reachability set.

    The invariant: the static set must be a superset of the dynamic set.
    Any dynamically observed syscall outside the static set — or any
    seccomp denial under the derived allowlist — is an analyzer
    soundness bug, not an application bug, and callers are expected to
    fail loudly on it. (Denials and escapes are distinct observables:
    a denied call is intercepted before tracing, so an unsound policy
    shows up in [cc_denied] while an unsound *trace* comparison would
    show up in [cc_escaped].) *)

type result = {
  cc_status : int; (* packed wait status of the run *)
  cc_output : string; (* console output *)
  cc_static : string list; (* the derived allowlist *)
  cc_dynamic : string list; (* syscalls actually dispatched *)
  cc_escaped : string list; (* dynamic \ static: soundness violations *)
  cc_denied : (string * int) list; (* seccomp denials under the policy *)
  cc_unused_allow : string list; (* static \ dynamic: over-approximation *)
}

let ok (r : result) = r.cc_escaped = [] && r.cc_denied = []

(** One line per soundness violation: each escaped syscall, each denial. *)
let violations (r : result) : string list =
  List.map
    (Printf.sprintf "escaped syscall (traced, not in static set): %s")
    r.cc_escaped
  @ List.map
      (fun (n, c) -> Printf.sprintf "denied under derived policy: %s (%d)" n c)
      r.cc_denied

(** Judge a finished run: [trace] saw every syscall it dispatched and
    [policy] is the derived policy it ran under. *)
let check ~(summary : Reach.summary) ~(policy : Wali.Seccomp.t)
    ~(trace : Wali.Strace.t) ~status ~output : result =
  let static = Reach.allowlist summary in
  let dynamic =
    List.map fst (Wali.Strace.profile trace) |> List.sort_uniq compare
  in
  {
    cc_status = status;
    cc_output = output;
    cc_static = static;
    cc_dynamic = dynamic;
    cc_escaped = List.filter (fun s -> not (List.mem s static)) dynamic;
    cc_denied = Wali.Seccomp.denied_counts policy;
    cc_unused_allow = List.filter (fun s -> not (List.mem s dynamic)) static;
  }

(** Run [binary] under the policy derived from [summary] on [kernel]
    (default: a fresh boot; see [Apps.Suite.boot] for an app's fixtures
    and console input). *)
let run ?kernel ?(argv = [ "module" ]) ?(env = []) ~(summary : Reach.summary)
    ~(binary : string) () : result =
  let policy = Reach.policy summary in
  let trace = Wali.Strace.create () in
  let status, output, _ =
    Wali.Interface.run_program ?kernel ~trace ~policy ~binary ~argv ~env ()
  in
  check ~summary ~policy ~trace ~status ~output

(** One-call form: derive the policy from [binary] itself, then verify. *)
let run_binary ?kernel ?argv ?env ?name (binary : string) : result =
  let summary = Reach.analyze_binary ?name binary in
  run ?kernel ?argv ?env ~summary ~binary ()
