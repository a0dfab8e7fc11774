(** Seeded guest inputs and their expected outputs.

    Every workload is a pool of guest programs derived from the seed
    alone: the same seed gives byte-identical argv strings. The expected
    console output of each program is computed here, in OCaml, without
    running the engine, so it is an oracle independent of the system
    under test. *)

type workload = Compute | Kv | Shell | Kv_record

let workloads =
  [ ("compute", Compute); ("kv", Kv); ("shell", Shell); ("kv-record", Kv_record) ]

let workload_of_name n = List.assoc_opt n workloads

type program = {
  argv : string list;
  expect : string; (* the exact console output *)
}

(* Programs are drawn from a pool of this many and cycled; a run
   completes at most a few hundred, so the pool is never exhausted in
   practice, and each program's inputs depend only on (seed, index). *)
let pool_size = 256

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* ---- compute: calc scripts, nested while loops over bounded ints ---- *)

(* One block: two accumulators driven by a nested loop. Every value stays
   below [m] < 10^4, so products stay far from i32 overflow and calc's
   truncating [%] equals OCaml's [mod] on these non-negative operands. *)
let calc_block r buf out =
  let m = 8000 + Random.State.int r 1973 in
  let k = 2 + Random.State.int r 90 in
  let c = Random.State.int r 100 in
  let a0 = Random.State.int r m and b0 = Random.State.int r m in
  let n1 = 6 + Random.State.int r 5 and n2 = 8 + Random.State.int r 7 in
  Printf.bprintf buf
    "a = %d; b = %d; i = 0; while i < %d do j = 0; while j < %d do a = (a * \
     %d + j + %d) %% %d; j = j + 1 end; b = (b + a * i) %% %d; i = i + 1 end; \
     print a; print b; "
    a0 b0 n1 n2 k c m m;
  let a = ref a0 and b = ref b0 in
  for i = 0 to n1 - 1 do
    for j = 0 to n2 - 1 do
      a := ((!a * k) + j + c) mod m
    done;
    b := (!b + (!a * i)) mod m
  done;
  Printf.bprintf out "%d\n%d\n" !a !b

let compute_program r =
  let buf = Buffer.create 512 and out = Buffer.create 32 in
  for _ = 1 to 2 do
    calc_block r buf out
  done;
  { argv = [ "calc"; "-e"; Buffer.contents buf ]; expect = Buffer.contents out }

(* ---- kv: kvd bench N (a forked client against the in-process server) ---- *)

let kv_program r =
  let n = 150 + Random.State.int r 101 in
  {
    argv = [ "kvd"; "bench"; string_of_int n ];
    (* the server prints "bye" before the client reports: the
       deterministic scheduler runs the server on after STOP is answered *)
    expect = Printf.sprintf "kvd: ready\nkvd: bye\nops=%d hits=%d\n" (2 * n) n;
  }

(* ---- shell: minish -c scripts over files, pipes, subshells, exec ---- *)

(* Where the shell workload installs the calc binary it execs. *)
let calc_path = "/bin/calc"

let word r =
  String.init (3 + Random.State.int r 5) (fun _ ->
      Char.chr (Char.code 'a' + Random.State.int r 26))

(* One command group; [k] keeps each group's files distinct. Commands
   are separated by ';' and tokens by single spaces, which is all the
   minish tokenizer understands, so no token may contain either. *)
let shell_group r k buf out =
  match Random.State.int r 4 with
  | 0 ->
      let w = word r in
      Printf.bprintf buf "write /tmp/f%d %s;cat /tmp/f%d;echo;" k w k;
      Printf.bprintf out "%s\n" w
  | 1 ->
      let w1 = word r and w2 = word r in
      Printf.bprintf buf "echo %s %s | upcase;" w1 w2;
      Printf.bprintf out "%s %s\n" (String.uppercase_ascii w1)
        (String.uppercase_ascii w2)
  | 2 ->
      let w1 = word r and w2 = word r in
      Printf.bprintf buf "sub echo %s %s;" w1 w2;
      Printf.bprintf out "%s %s\n" w1 w2
  | _ ->
      let a = 1 + Random.State.int r 99
      and b = 1 + Random.State.int r 99
      and c = Random.State.int r 100 in
      Printf.bprintf buf "write /tmp/e%d print%d*%d+%d;%s /tmp/e%d;" k a b c
        calc_path k;
      Printf.bprintf out "%d\n" ((a * b) + c)

let shell_groups = 48

let shell_program r =
  let buf = Buffer.create 512 and out = Buffer.create 128 in
  for k = 1 to shell_groups do
    shell_group r k buf out
  done;
  (* drop the trailing ';': minish would run an empty last command *)
  let script = Buffer.sub buf 0 (Buffer.length buf - 1) in
  { argv = [ "minish"; "-c"; script ]; expect = Buffer.contents out }

(** The seed's program pool for a workload. [kv-record] runs exactly the
    [kv] inputs, so the two differ only by the recording tap. *)
let pool (w : workload) ~seed : program array =
  let salt, make =
    match w with
    | Compute -> (1, compute_program)
    | Kv | Kv_record -> (2, kv_program)
    | Shell -> (3, shell_program)
  in
  let r = rng ~seed ~salt in
  Array.init pool_size (fun _ -> make r)

(** The bytes of a pool, for the same-seed-same-inputs check. *)
let digest (p : program array) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (Array.to_list
             (Array.map (fun q -> String.concat "\x01" q.argv ^ "\x02" ^ q.expect) p))))
