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

(* Emulation-control calls (not Linux syscalls): MiniC builtin name and
   call number. *)
let builtins =
  [ ("argc", 6000); ("argv_len", 6001); ("argv_copy", 6002); ("envc", 6003);
    ("env_len", 6004); ("env_copy", 6005); ("memcopy", 6010); ("memfill", 6011) ]
