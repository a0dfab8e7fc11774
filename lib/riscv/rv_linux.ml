(** Guest syscall numbering for the RV32 target.

    Numbers are assigned from the Linux syscall table in
    {!Tables.Linux_tables} (a stable, riscv-present-first ordering) —
    illustrating exactly the cross-ISA numbering divergence that WALI's
    name binding sidesteps (paper §3.5). Numbers above 6000 are the
    emulation-control calls the guest startup shim uses (argv/env
    transfer), mirroring how qemu-user implements auxv. *)

let table : (string * int) array =
  let entries = Tables.Linux_tables.all in
  let arr = Array.of_list (List.map (fun (e : Tables.Linux_tables.entry) -> e.Tables.Linux_tables.name) entries) in
  Array.mapi (fun i name -> (name, i + 64)) arr

let nr_of_name (name : string) : int option =
  Array.fold_left
    (fun acc (n, nr) -> if n = name then Some nr else acc)
    None table

let name_of_nr (nr : int) : string option =
  let i = nr - 64 in
  if i >= 0 && i < Array.length table then Some (fst table.(i)) else None

(* Emulation-control calls (not Linux syscalls). *)
let nr_get_argc = 6000
let nr_get_argv_len = 6001
let nr_copy_argv = 6002
let nr_get_envc = 6003
let nr_get_env_len = 6004
let nr_copy_env = 6005
let nr_memcopy = 6010
let nr_memfill = 6011

let builtin_nr = function
  | "argc" -> nr_get_argc
  | "argv_len" -> nr_get_argv_len
  | "argv_copy" -> nr_copy_argv
  | "envc" -> nr_get_envc
  | "env_len" -> nr_get_env_len
  | "env_copy" -> nr_copy_env
  | "memcopy" -> nr_memcopy
  | "memfill" -> nr_memfill
  | b -> raise (Rv_mach.Rv_trap ("no RV lowering for builtin " ^ b))

let builtin_of_nr nr =
  if nr = nr_get_argc then Some "argc"
  else if nr = nr_get_argv_len then Some "argv_len"
  else if nr = nr_copy_argv then Some "argv_copy"
  else if nr = nr_get_envc then Some "envc"
  else if nr = nr_get_env_len then Some "env_len"
  else if nr = nr_copy_env then Some "env_copy"
  else if nr = nr_memcopy then Some "memcopy"
  else if nr = nr_memfill then Some "memfill"
  else None
