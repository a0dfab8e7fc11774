(** seccomp-like dynamic syscall policies, layered entirely in user space
    above the kernel interface (paper §3.6 "Dynamic Policies").

    Because WALI syscalls are name-bound, policies are ISA-agnostic and
    can be expressed against names rather than numbers. Policies compose:
    for a given syscall name the most recently added rule wins, then the
    default applies. Rules are a table keyed by name, so adding a rule
    replaces any earlier one for that name. *)

type verdict =
  | Allow
  | Deny of Kernel.Errno.t (* fail the call with an errno *)
  | Kill (* terminate the process, like SECCOMP_RET_KILL *)

type t = {
  rules : (string, verdict) Hashtbl.t; (* syscall name -> latest rule *)
  mutable default : verdict;
  mutable hits : (string, int) Hashtbl.t; (* denied-call accounting *)
}

let make default = { rules = Hashtbl.create 64; default; hits = Hashtbl.create 8 }
let allow_all () = make Allow
let allow t name = Hashtbl.replace t.rules name Allow

let deny t name ?(errno = Kernel.Errno.EPERM) () =
  Hashtbl.replace t.rules name (Deny errno)

let kill_on t name = Hashtbl.replace t.rules name Kill

(** A default-deny policy seeded with an allowlist, the shape used by
    gVisor/Nabla-style secure containers. *)
let allowlist names =
  let t = make (Deny Kernel.Errno.EPERM) in
  List.iter (allow t) names;
  t

(** Resolve [name]: the most recently added rule for the name, or the
    policy default. *)
let check t name : verdict =
  let v =
    match Hashtbl.find_opt t.rules name with
    | Some v -> v
    | None -> t.default
  in
  (match v with
  | Allow -> ()
  | Deny _ | Kill ->
      Hashtbl.replace t.hits name
        (1 + Option.value (Hashtbl.find_opt t.hits name) ~default:0));
  v

let denied_counts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hits []
  |> List.sort compare
