(* The rule catalog: every repository invariant the type system cannot
   express, checked on the Parsetree rather than with grep. Working on
   the AST means comments and string literals can never trigger a rule,
   multi-line and type-annotated bindings are seen like any other, and
   the closure-capture race detector can reason about what a closure
   actually touches. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Longident / path helpers                                            *)
(* ------------------------------------------------------------------ *)

let rec flatten_longident = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) -> (
      match flatten_longident l with
      | Some p -> Some (p @ [ s ])
      | None -> None)
  | Longident.Lapply _ -> None

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let ends_with ~suffix path =
  let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
  let lp = List.length path and ls = List.length suffix in
  lp >= ls && drop (lp - ls) path = suffix

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten_longident txt with
      | Some p -> Some (strip_stdlib p)
      | None -> None)
  | _ -> None

let dotted = String.concat "."

(* File-path predicates over repo-relative, '/'-separated paths. *)
let starts_with prefix f =
  String.length f >= String.length prefix
  && String.sub f 0 (String.length prefix) = prefix

let in_any prefixes f = List.exists (fun p -> starts_with p f) prefixes
let everywhere (_ : string) = true
let nowhere (_ : string) = false

(* ------------------------------------------------------------------ *)
(* Generic traversals                                                  *)
(* ------------------------------------------------------------------ *)

(* Visit every expression identifier; [f] returns an optional
   diagnostic for the (Stdlib-stripped) dotted path. *)
let fold_idents ~file str ~f =
  let acc = ref [] in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match flatten_longident txt with
        | Some p -> (
            match f ~loc:e.pexp_loc (strip_stdlib p) with
            | Some d -> acc := d :: !acc
            | None -> ())
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  ignore file;
  List.rev !acc

(* Does [e] (sub)contain an identifier whose last component is [name]? *)
let mentions_ident e ~name =
  let found = ref false in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match flatten_longident txt with
        | Some p when ends_with ~suffix:[ name ] p -> found := true
        | _ -> ())
    | _ -> ());
    if not !found then Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Rule 1: obj-magic                                                   *)
(* ------------------------------------------------------------------ *)

let check_obj_magic ~file str =
  fold_idents ~file str ~f:(fun ~loc p ->
      if ends_with ~suffix:[ "Obj"; "magic" ] p then
        Some
          (Diagnostic.make ~rule:"obj-magic" ~loc ~file
             ~message:"Obj.magic is forbidden")
      else None)

(* ------------------------------------------------------------------ *)
(* Rule 2: stdlib-random                                               *)
(* ------------------------------------------------------------------ *)

(* Any qualified access rooted at the stdlib Random module — including
   Random.State — plus opening or aliasing the module itself. *)
let check_stdlib_random ~file str =
  let diags = ref [] in
  let flag loc what =
    diags :=
      Diagnostic.make ~rule:"stdlib-random" ~loc ~file
        ~message:
          (Printf.sprintf
             "%s: use the seeded Mir_util.Prng, never stdlib Random" what)
      :: !diags
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match flatten_longident txt with
        | Some p -> (
            match strip_stdlib p with
            | "Random" :: _ :: _ as p -> flag e.pexp_loc (dotted p)
            | _ -> ())
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let module_expr self me =
    (match me.pmod_desc with
    | Pmod_ident { txt; _ } -> (
        match flatten_longident txt with
        | Some p -> (
            match strip_stdlib p with
            | [ "Random" ] | "Random" :: _ ->
                flag me.pmod_loc ("module " ^ dotted (strip_stdlib p))
            | _ -> ())
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.module_expr self me
  in
  let it = { Ast_iterator.default_iterator with expr; module_expr } in
  it.structure it str;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rules 3/5/7: fenced entry points                                    *)
(* ------------------------------------------------------------------ *)

let check_suffixes ~rule ~message_of ~suffixes ~file str =
  fold_idents ~file str ~f:(fun ~loc p ->
      if List.exists (fun s -> ends_with ~suffix:s p) suffixes then
        Some (Diagnostic.make ~rule ~loc ~file ~message:(message_of p))
      else None)

let check_csr_write ~file str =
  check_suffixes ~rule:"csr-write-path" ~file str
    ~suffixes:
      [
        [ "Csr_file"; "write" ];
        [ "Csr_file"; "write_raw" ];
        [ "Csr_file"; "set_mip_bits" ];
      ]
    ~message_of:(fun p ->
      Printf.sprintf "direct %s outside the sanctioned install paths"
        (dotted p))

let check_machine_step ~file str =
  check_suffixes ~rule:"machine-step" ~file str
    ~suffixes:[ [ "Machine"; "step" ] ]
    ~message_of:(fun p ->
      Printf.sprintf
        "direct hart stepping via %s; use Machine.run or \
         Machine.run_scheduled"
        (dotted p))

let check_block_step ~file str =
  check_suffixes ~rule:"block-step" ~file str
    ~suffixes:[ [ "Machine"; "step_blocks" ] ]
    ~message_of:(fun p ->
      Printf.sprintf
        "direct block-engine stepping via %s; use Machine.run or \
         run_scheduled, whose advance honors the block_engine knob"
        (dotted p))

(* ------------------------------------------------------------------ *)
(* Rule 4: satp-raw-install                                            *)
(* ------------------------------------------------------------------ *)

(* An application of Csr_file.write_raw any of whose arguments mentions
   an identifier ending in [satp] (Csr_addr.satp, a local [satp], ...).
   Unlike the old single-line regex this sees through line breaks and
   intermediate lets. *)
let check_satp_raw ~file str =
  let diags = ref [] in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match ident_path f with
        | Some p when ends_with ~suffix:[ "Csr_file"; "write_raw" ] p ->
            if List.exists (fun (_, a) -> mentions_ident a ~name:"satp") args
            then
              diags :=
                Diagnostic.make ~rule:"satp-raw-install" ~loc:e.pexp_loc ~file
                  ~message:
                    "raw satp install outside the world-switch/architecture \
                     layers (TLB vm-epoch contract)"
                :: !diags
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rule 6: toplevel-mutable                                            *)
(* ------------------------------------------------------------------ *)

(* Mutable-creating right-hand sides of *module-level* let bindings,
   at any module depth: plain structures, nested modules, functor
   bodies, include bodies. Local lets inside functions are fine — that
   is exactly where per-machine state is supposed to live. *)

let mutable_ctors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Buffer"; "create" ];
    [ "Stack"; "create" ];
    [ "Atomic"; "make" ];
    [ "Array"; "make" ];
    [ "Array"; "create_float" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Weak"; "create" ];
  ]

(* The expression a binding finally evaluates to, looking through
   annotations, local lets, opens and sequencing. *)
let rec binding_result e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> binding_result e
  | Pexp_let (_, _, body) | Pexp_open (_, body) | Pexp_sequence (_, body) ->
      binding_result body
  | _ -> e

let mutable_rhs e =
  let e = binding_result e in
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some p when List.exists (fun c -> ends_with ~suffix:c p) mutable_ctors
        ->
          Some (dotted p)
      | _ -> None)
  | Pexp_record (fields, _)
    when List.exists
           (fun ({ Location.txt; _ }, _) ->
             match flatten_longident txt with
             | Some p -> ends_with ~suffix:[ "contents" ] p
             | None -> false)
           fields ->
      Some "{ contents = _ }"
  | Pexp_lazy _ -> Some "lazy"
  | _ -> None

let check_toplevel_mutable ~file str =
  let diags = ref [] in
  let rec walk_items items = List.iter walk_item items
  and walk_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match mutable_rhs vb.pvb_expr with
            | Some ctor ->
                diags :=
                  Diagnostic.make ~rule:"toplevel-mutable" ~loc:vb.pvb_loc
                    ~file
                    ~message:
                      (Printf.sprintf
                         "module-top-level mutable state (%s) in \
                          domain-shared code; thread it through the \
                          per-machine context"
                         ctor)
                  :: !diags
            | None -> ())
          vbs
    | Pstr_module mb -> walk_module_expr mb.pmb_expr
    | Pstr_recmodule mbs ->
        List.iter (fun mb -> walk_module_expr mb.pmb_expr) mbs
    | Pstr_include { pincl_mod; _ } -> walk_module_expr pincl_mod
    | _ -> ()
  and walk_module_expr me =
    match me.pmod_desc with
    | Pmod_structure items -> walk_items items
    | Pmod_functor (_, body) -> walk_module_expr body
    | Pmod_constraint (me, _) -> walk_module_expr me
    | _ -> ()
  in
  walk_items str;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rule 8: domain-capture — the race detector                          *)
(* ------------------------------------------------------------------ *)

(* Function calls that mutate their first argument in place. *)
let mutator_calls =
  [
    [ "Hashtbl"; "add" ]; [ "Hashtbl"; "replace" ]; [ "Hashtbl"; "remove" ];
    [ "Hashtbl"; "reset" ]; [ "Hashtbl"; "clear" ];
    [ "Hashtbl"; "filter_map_inplace" ];
    [ "Array"; "set" ]; [ "Array"; "unsafe_set" ]; [ "Array"; "fill" ];
    [ "Array"; "blit" ]; [ "Array"; "sort" ];
    [ "Bytes"; "set" ]; [ "Bytes"; "unsafe_set" ]; [ "Bytes"; "fill" ];
    [ "Bytes"; "blit" ];
    [ "Buffer"; "add_char" ]; [ "Buffer"; "add_string" ];
    [ "Buffer"; "add_bytes" ]; [ "Buffer"; "add_substring" ];
    [ "Buffer"; "add_buffer" ]; [ "Buffer"; "clear" ];
    [ "Buffer"; "reset" ]; [ "Buffer"; "truncate" ];
    [ "Queue"; "push" ]; [ "Queue"; "add" ]; [ "Queue"; "pop" ];
    [ "Queue"; "take" ]; [ "Queue"; "clear" ]; [ "Queue"; "transfer" ];
    [ "Stack"; "push" ]; [ "Stack"; "pop" ]; [ "Stack"; "clear" ];
  ]

(* The spawn-like entry points whose closure arguments run on another
   domain: Domain.spawn and the fleet pool (Pool.run / Fleet.Pool.run). *)
let spawn_entry p =
  if ends_with ~suffix:[ "Domain"; "spawn" ] p then Some "Domain.spawn"
  else if ends_with ~suffix:[ "Pool"; "run" ] p then Some "Pool.run"
  else None

(* Every name bound anywhere inside [e] (parameters, lets, match cases,
   for indices). Shadow-insensitive over-approximation: treating a
   mutation target as bound whenever *some* binder shares its name can
   only suppress reports, never invent them. *)
let bound_names e =
  let names = Hashtbl.create 16 in
  let pat self p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
        Hashtbl.replace names txt ()
    | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_for ({ ppat_desc = Ppat_var { txt; _ }; _ }, _, _, _, _) ->
        Hashtbl.replace names txt ()
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with pat; expr } in
  it.expr it e;
  names

(* Peel r.field / !r down to the root identifier being mutated. *)
let rec mutation_base e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten_longident txt
  | Pexp_field (e, _) -> mutation_base e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
                [ (_, a) ]) ->
      mutation_base a
  | _ -> None

let is_fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let analyze_closure ~file ~entry closure =
  let bound = bound_names closure in
  let diags = ref [] in
  let flag loc name verb =
    diags :=
      Diagnostic.make ~rule:"domain-capture" ~loc ~file
        ~message:
          (Printf.sprintf
             "closure passed to %s %s captured '%s' without an \
              Atomic/Mutex wrapper"
             entry verb name)
      :: !diags
  in
  let check_target loc verb target =
    match mutation_base target with
    | Some p -> (
        match strip_stdlib p with
        | [ x ] -> if not (Hashtbl.mem bound x) then flag loc x verb
        | _ :: _ as p ->
            (* Qualified path: module-level state reached from another
               domain. Always a capture of shared state. *)
            flag loc (dotted p) verb
        | [] -> ())
    | None -> ()
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_setfield (target, _, _) ->
        check_target e.pexp_loc "assigns a field of" target;
        Ast_iterator.default_iterator.expr self e
    | Pexp_apply (f, args) -> (
        match ident_path f with
        | Some [ ":=" ] ->
            (match args with
            | (_, lhs) :: _ -> check_target e.pexp_loc "assigns" lhs
            | [] -> ());
            Ast_iterator.default_iterator.expr self e
        | Some [ "!" ] ->
            (match args with
            | (_, a) :: _ -> check_target e.pexp_loc "dereferences" a
            | [] -> ());
            Ast_iterator.default_iterator.expr self e
        | Some p when ends_with ~suffix:[ "Mutex"; "protect" ] p ->
            (* The critical section is lock-protected: trust it. *)
            ignore self
        | Some p
          when List.exists (fun c -> ends_with ~suffix:c p) mutator_calls -> (
            (match
               List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args
             with
            | Some (_, target) ->
                check_target e.pexp_loc
                  (Printf.sprintf "mutates (%s)" (dotted p))
                  target
            | None -> ());
            Ast_iterator.default_iterator.expr self e)
        | _ -> Ast_iterator.default_iterator.expr self e)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it closure;
  List.rev !diags

let check_domain_capture ~file str =
  let diags = ref [] in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match ident_path f with
        | Some p -> (
            match spawn_entry p with
            | Some entry ->
                List.iter
                  (fun (_, a) ->
                    if is_fun_literal a then
                      diags := analyze_closure ~file ~entry a :: !diags)
                  args
            | None -> ())
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.concat (List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Rule 9: determinism                                                 *)
(* ------------------------------------------------------------------ *)

let entropy_sources =
  [
    [ "Sys"; "time" ];
    [ "Unix"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Random"; "self_init" ];
    [ "Domain"; "self" ];
  ]

let check_determinism ~file str =
  fold_idents ~file str ~f:(fun ~loc p ->
      let banned =
        List.exists (fun s -> ends_with ~suffix:s p) entropy_sources
        || ends_with ~suffix:[ "gettimeofday" ] p
        || ends_with ~suffix:[ "self_init" ] p
      in
      if banned then
        Some
          (Diagnostic.make ~rule:"determinism" ~loc ~file
             ~message:
               (Printf.sprintf
                  "wall-clock/host-entropy source %s outside bench/; \
                   simulation results must be a pure function of the \
                   config seed"
                  (dotted p)))
      else None)

(* ------------------------------------------------------------------ *)
(* The catalog                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  id : string;
  title : string;
  rationale : string;
  applies : string -> bool;
  sanctioned : string -> bool;
  check : file:string -> Parsetree.structure -> Diagnostic.t list;
}

let all =
  [
    {
      id = "obj-magic";
      title = "Obj.magic is banned outright";
      rationale =
        "unsafe casts void every invariant the verifier proves about \
         the simulator's state";
      applies = everywhere;
      sanctioned = nowhere;
      check = check_obj_magic;
    };
    {
      id = "stdlib-random";
      title = "stdlib Random is banned outside the seeded PRNG";
      rationale =
        "all randomness must flow from the config-rooted seeded PRNG, \
         or record/replay and the verification seeds lose determinism";
      applies = everywhere;
      sanctioned = (fun f -> f = "lib/util/prng.ml");
      check = check_stdlib_random;
    };
    {
      id = "csr-write-path";
      title = "CSR stores only via the sanctioned install paths";
      rationale =
        "Csr_file.write/write_raw/set_mip_bits may be used by the \
         architecture, the monitor's install paths, the policies and \
         the verification harnesses; everything else goes through \
         those layers";
      applies = everywhere;
      sanctioned =
        (fun f ->
          in_any [ "lib/rv/"; "lib/policies/"; "lib/verif/"; "test/" ] f
          || List.mem f
               [
                 "lib/core/emulator.ml"; "lib/core/monitor.ml";
                 "lib/core/world.ml"; "lib/core/offload.ml";
                 "lib/core/vpmp.ml";
                 (* the ACE differential harness stages trap CSRs the
                    way a real ecall/interrupt entry would *)
                 "lib/fuzz/acefuzz.ml";
               ]);
      check = check_csr_write;
    };
    {
      id = "satp-raw-install";
      title = "raw satp installs only in the world-switch layers";
      rationale =
        "a raw satp swap bypasses review of the TLB vm-epoch \
         invalidation contract";
      applies = everywhere;
      sanctioned =
        (fun f ->
          in_any [ "lib/rv/"; "lib/verif/"; "test/" ] f
          || List.mem f [ "lib/core/world.ml"; "lib/core/monitor.ml" ]);
      check = check_satp_raw;
    };
    {
      id = "machine-step";
      title = "Machine.step only in the machine, differs and benches";
      rationale =
        "multi-hart execution must go through Machine.run / \
         run_scheduled (their advance) so schedule control, race \
         ticking and device/time sync are never bypassed";
      applies = everywhere;
      sanctioned =
        (fun f ->
          in_any [ "lib/rv/"; "lib/verif/"; "bench/" ] f
          || f = "test/test_blocks.ml");
      check = check_machine_step;
    };
    {
      id = "toplevel-mutable";
      title = "no module-top-level mutable state under lib/";
      rationale =
        "the fleet runs machines on multiple OCaml domains; every \
         mutable structure must live inside a per-machine value \
         threaded through constructors";
      applies = (fun f -> starts_with "lib/" f);
      sanctioned = nowhere;
      check = check_toplevel_mutable;
    };
    {
      id = "block-step";
      title = "Machine.step_blocks behind the same fence as step";
      rationale =
        "Machine's advance (under run and run_scheduled) owns the \
         engine/interpreter dispatch, so the block_engine knob and its \
         determinism contract are honored everywhere";
      applies = everywhere;
      sanctioned =
        (fun f ->
          in_any [ "lib/rv/"; "lib/verif/"; "bench/" ] f
          || f = "test/test_blocks.ml");
      check = check_block_step;
    };
    {
      id = "domain-capture";
      title = "no unsynchronized mutable capture across Domain.spawn";
      rationale =
        "a closure handed to Domain.spawn or the fleet pool races on \
         any captured mutable value unless every access goes through \
         Atomic or a Mutex";
      applies = everywhere;
      sanctioned = nowhere;
      check = check_domain_capture;
    };
    {
      id = "determinism";
      title = "no wall-clock or host entropy outside bench/";
      rationale =
        "Sys.time, Unix.gettimeofday, Random.self_init and Domain.self \
         leak host nondeterminism into results that must be a pure \
         function of the config seed";
      applies = (fun f -> not (starts_with "bench/" f));
      sanctioned = nowhere;
      check = check_determinism;
    };
  ]

let ids = List.map (fun r -> r.id) all
let by_id id = List.find_opt (fun r -> r.id = id) all
let except disabled = List.filter (fun r -> not (List.mem r.id disabled)) all
