type src = Const of Word.t | Reg of int | Bus of int | Fu of int

type action = { src : src; dst : int }

type fu_plan = {
  fu : Model.fu;
  op_sink : int;
  in1_sink : int;
  in2_sink : int;
}

type t = {
  model : Model.t;
  inject : Inject.t;
  nsinks : int;
  sink_name : string array;
  sink_index : (string, int) Hashtbl.t;
  slots : action array array;
  slot_prov : int array array;
  leg_slot : int array;
  patch_slot : int array;
  patch_acts : action array array;
  static_actions : int;
  fu_plans : fu_plan array;
  nregs : int;
  reg_init : Word.t array;
  reg_in_sink : int array;
  out_sink : int array;
  sink_tamper : Inject.tamper option array;
  reg_tamper : Inject.tamper option array;
  last_patched : int;
}

let oscillator_error (m : Model.t) =
  invalid_arg
    (Printf.sprintf
       "Sched: model %s: an injected oscillator never settles, so \
        there is no static schedule; use the kernel or the interpreter"
       m.name)

let sink_id_in (m : Model.t) sink_index site n =
  match Hashtbl.find_opt sink_index n with
  | Some i -> i
  | None ->
    (* validated models only reference declared resources, so this
       is a compiler bug — mirror the elaboration diagnostic.
       Injected saboteurs also land here: their sinks are arbitrary
       user input, checked with the same message as the kernel's. *)
    invalid_arg
      (Printf.sprintf
         "Sched: model %s declares no resource signal %S \
          (referenced by %s)"
         m.name n site)

(* Compile the clean model: every leg, every op-selection, no overlay.
   Fault overlays are patched onto this by [overlay] — they never
   recompile, so a campaign pays the hashtable and list walks below
   once per model, not once per variant. *)
let compile (m : Model.t) =
  let sink_ids = Hashtbl.create 64 in
  let names = ref [] in
  let add_sink n =
    if not (Hashtbl.mem sink_ids n) then begin
      Hashtbl.add sink_ids n (Hashtbl.length sink_ids);
      names := n :: !names
    end
  in
  List.iter add_sink m.buses;
  List.iter
    (fun (r : Model.register) -> add_sink (r.reg_name ^ ".in"))
    m.registers;
  List.iter
    (fun (f : Model.fu) ->
      add_sink (f.fu_name ^ ".in1");
      add_sink (f.fu_name ^ ".in2");
      add_sink (f.fu_name ^ ".op"))
    m.fus;
  List.iter add_sink m.outputs;
  let nsinks = Hashtbl.length sink_ids in
  let sink_name = Array.make (max nsinks 1) "" in
  List.iter (fun n -> sink_name.(Hashtbl.find sink_ids n) <- n) !names;
  let sink_id site n = sink_id_in m sink_ids site n in
  let reg_index = Hashtbl.create 16 in
  List.iteri
    (fun i (r : Model.register) -> Hashtbl.replace reg_index r.reg_name i)
    m.registers;
  let fu_index = Hashtbl.create 8 in
  List.iteri
    (fun i (f : Model.fu) -> Hashtbl.replace fu_index f.fu_name i)
    m.fus;
  let compile_src (l : Transfer.leg) =
    match l.src with
    | Transfer.Reg_out r -> Reg (Hashtbl.find reg_index r)
    | Transfer.In_port i ->
      (* input-port values are a pure function of the control step, so
         the read folds to a constant at compile time *)
      let v =
        match
          List.find_opt (fun (x : Model.input) -> x.in_name = i) m.inputs
        with
        | Some inp -> Model.input_value inp l.step
        | None -> Word.disc
      in
      Const v
    | Transfer.Bus b -> Bus (sink_id "a transfer leg" b)
    | Transfer.Fu_out f -> Fu (Hashtbl.find fu_index f)
    | Transfer.Reg_in _ | Transfer.Fu_in _ | Transfer.Out_port _ ->
      Const Word.disc
  in
  let nslots = m.cs_max * Phase.count in
  let slot_rev = Array.make nslots [] in
  let prov_rev = Array.make nslots [] in
  let slot_of step phase = ((step - 1) * Phase.count) + Phase.to_int phase in
  let legs, selects = Model.all_legs m in
  let leg_slot = Array.make (List.length legs) 0 in
  List.iteri
    (fun idx (l : Transfer.leg) ->
      let a =
        { src = compile_src l;
          dst = sink_id "a transfer leg" (Transfer.endpoint_name l.dst) }
      in
      let s = slot_of l.step l.phase in
      slot_rev.(s) <- a :: slot_rev.(s);
      prov_rev.(s) <- idx :: prov_rev.(s);
      leg_slot.(idx) <- s)
    legs;
  List.iter
    (fun (s : Transfer.op_select) ->
      match Hashtbl.find_opt fu_index s.sel_fu with
      | None -> ()
      | Some fi ->
        let f = List.nth m.fus fi in
        let rec find i = function
          | [] -> Word.illegal
          | o :: rest -> if Ops.equal o s.sel_op then i else find (i + 1) rest
        in
        let a =
          { src = Const (find 0 f.ops);
            dst = sink_id "an op selection" (s.sel_fu ^ ".op") }
        in
        let k = slot_of s.sel_step Phase.Rb in
        slot_rev.(k) <- a :: slot_rev.(k);
        prov_rev.(k) <- -1 :: prov_rev.(k))
    selects;
  (* filled in place: [Array.map] would seed these schedule-length
     tables with a freshly allocated row, and a young initial value
     forces a minor collection once a table passes 256 slots *)
  let slots = Array.make nslots [||] and slot_prov = Array.make nslots [||] in
  for k = 0 to nslots - 1 do
    slots.(k) <- Array.of_list (List.rev slot_rev.(k));
    slot_prov.(k) <- Array.of_list (List.rev prov_rev.(k))
  done;
  let static_actions =
    Array.fold_left (fun n a -> n + Array.length a) 0 slots
  in
  let fu_plans =
    Array.of_list
      (List.map
         (fun (f : Model.fu) ->
           { fu = f;
             op_sink = sink_id "a unit" (f.fu_name ^ ".op");
             in1_sink = sink_id "a unit" (f.fu_name ^ ".in1");
             in2_sink = sink_id "a unit" (f.fu_name ^ ".in2") })
         m.fus)
  in
  { model = m; inject = Inject.none; nsinks; sink_name;
    sink_index = sink_ids; slots; slot_prov; leg_slot;
    patch_slot = [||]; patch_acts = [||]; static_actions; fu_plans;
    nregs = List.length m.registers;
    reg_init =
      Array.of_list
        (List.map (fun (r : Model.register) -> r.init) m.registers);
    reg_in_sink =
      Array.of_list
        (List.map
           (fun (r : Model.register) ->
             sink_id "a register" (r.reg_name ^ ".in"))
           m.registers);
    out_sink =
      Array.of_list (List.map (sink_id "an output port") m.outputs);
    sink_tamper = Array.make (max nsinks 1) None;
    reg_tamper =
      Array.of_list (List.map (fun (_ : Model.register) -> None) m.registers);
    last_patched = -1 }

(* The slot table an executor walks: the base compile's arrays except
   at the overlay's patched indices.  [patch_slot] is sorted and holds
   one or two entries for a campaign fault, and every slot past
   [last_patched] is the base's, so the common read is one comparison. *)
let rec patched t k i =
  if i >= Array.length t.patch_slot then t.slots.(k)
  else
    let p = t.patch_slot.(i) in
    if p = k then t.patch_acts.(i)
    else if p > k then t.slots.(k)
    else patched t k (i + 1)

let slot t k = if k > t.last_patched then t.slots.(k) else patched t k 0

(* Patch an injection overlay onto a clean compile.  The overlay keeps
   the base's slot table and records only the slots a dropped leg or
   an in-range saboteur touches, as a sorted sparse patch set, so its
   cost is independent of the schedule length.  The patched slot
   contents replay [compile]'s ordering: surviving legs in leg
   order, then op-selects, then saboteurs in plan order — so an
   overlay is action-for-action identical to a from-scratch compile of
   the injected model. *)
let overlay (base : t) (inject : Inject.t) =
  if not (Inject.is_none base.inject) then
    invalid_arg "Sched.overlay: base must be a clean compile";
  if Inject.is_none inject then base
  else begin
    let m = base.model in
    if inject.Inject.oscillators <> [] then oscillator_error m;
    (* (slot, contents) of every patched slot, most recent first *)
    let patches = ref [] in
    let current k =
      match List.assoc_opt k !patches with
      | Some a -> a
      | None -> base.slots.(k)
    in
    let set k a = patches := (k, a) :: List.remove_assoc k !patches in
    (* only the slots holding a dropped leg change; [leg_slot] finds
       them without scanning the schedule *)
    let dropped_slots =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun leg ->
             if leg >= 0 && leg < Array.length base.leg_slot then
               Some base.leg_slot.(leg)
             else None)
           inject.Inject.drop_legs)
    in
    List.iter
      (fun k ->
        let prov = base.slot_prov.(k) and old = base.slots.(k) in
        let dropped = ref 0 in
        Array.iter
          (fun leg ->
            if leg >= 0 && Inject.drops_leg inject leg then incr dropped)
          prov;
        let na =
          if Array.length old = !dropped then [||]
          else Array.make (Array.length old - !dropped) old.(0)
        in
        let j = ref 0 in
        Array.iteri
          (fun i leg ->
            if leg < 0 || not (Inject.drops_leg inject leg) then begin
              na.(!j) <- old.(i);
              incr j
            end)
          prov;
        set k na)
      dropped_slots;
    let slot_of step phase = ((step - 1) * Phase.count) + Phase.to_int phase in
    List.iter
      (fun (sb : Inject.saboteur) ->
        let dst =
          sink_id_in m base.sink_index "an injected saboteur"
            sb.Inject.sab_sink
        in
        if sb.Inject.sab_step >= 1 && sb.Inject.sab_step <= m.cs_max then begin
          let k = slot_of sb.Inject.sab_step sb.Inject.sab_phase in
          set k
            (Array.append (current k)
               [| { src = Const sb.Inject.sab_value; dst } |])
        end)
      inject.Inject.saboteurs;
    let patches =
      Array.of_list
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) !patches)
    in
    let patch_slot = Array.map fst patches in
    let patch_acts = Array.map snd patches in
    let static_actions =
      Array.fold_left
        (fun n (k, a) -> n + Array.length a - Array.length base.slots.(k))
        base.static_actions patches
    in
    let fu_plans =
      if inject.Inject.fu_latency = [] then base.fu_plans
      else
        Array.map
          (fun (p : fu_plan) ->
            match Inject.latency_for inject p.fu.Model.fu_name with
            | Some latency -> { p with fu = { p.fu with Model.latency } }
            | None -> p)
          base.fu_plans
    in
    let sink_tamper =
      if inject.Inject.tampers = [] then base.sink_tamper
      else begin
        let st = Array.make (max base.nsinks 1) None in
        Array.iteri
          (fun i n -> if n <> "" then st.(i) <- Inject.tamper_for inject n)
          base.sink_name;
        st
      end
    in
    let reg_tamper =
      if inject.Inject.tampers = [] then base.reg_tamper
      else
        Array.of_list
          (List.map
             (fun (r : Model.register) ->
               Inject.tamper_for inject (r.reg_name ^ ".out"))
             m.registers)
    in
    let n = Array.length patch_slot in
    { base with
      inject; patch_slot; patch_acts; static_actions; fu_plans; sink_tamper;
      reg_tamper;
      last_patched = (if n = 0 then -1 else patch_slot.(n - 1)) }
  end

(* What keeps a run off the static schedule: every blocker, in a fixed
   order, so a diagnosis names them all at once. *)
let blockers ~(inject : Inject.t) ~(config : Simulate.config) =
  let b = ref [] in
  let add why = b := why :: !b in
  if inject.Inject.oscillators <> [] then
    add
      "an injected oscillator never settles, so no static schedule \
       exists";
  if
    List.exists
      (fun (sb : Inject.saboteur) -> Phase.equal sb.Inject.sab_phase Phase.Cr)
      inject.Inject.saboteurs
  then
    add
      "a spurious driver contributing during cr releases into the next \
       control step, off the static schedule";
  (match config.Simulate.on_illegal with
   | Simulate.Record -> ()
   | Simulate.Halt ->
     add "the Halt conflict policy stops mid-schedule; use the kernel"
   | Simulate.Degrade ->
     add "the Degrade conflict policy is not static; use the kernel");
  List.rev !b

let compilable ?(inject = Inject.none) ?(config = Simulate.default)
    (_ : Model.t) =
  match blockers ~inject ~config with
  | [] -> Ok ()
  | bs -> Error (String.concat "; " bs)

let resolve_value t id ~step ~phase v =
  match t.sink_tamper.(id) with
  | None -> v
  | Some tam -> tam ~step ~phase v

let resolve_release t id ~step ~phase =
  match t.sink_tamper.(id) with
  | None -> Word.disc
  | Some tam -> tam ~step ~phase Word.disc

(* The kernel's REG process only drives the output when the initial
   value is not DISC, so the tamper only fires then; register-output
   tampers are step/phase-insensitive (stuck faults), so the exact
   point reported is immaterial — the same convention as {!Interp}. *)
let reg_view_init t r =
  match t.reg_tamper.(r) with
  | None -> t.reg_init.(r)
  | Some tam ->
    if Word.is_disc t.reg_init.(r) then Word.disc
    else tam ~step:1 ~phase:Phase.Ra t.reg_init.(r)

let reg_view_latch t r ~step v =
  match t.reg_tamper.(r) with
  | None -> v
  | Some tam ->
    let vis_step = if step < t.model.cs_max then step + 1 else step in
    tam ~step:vis_step ~phase:Phase.Ra v

let reg_view_resume t r ~boundary v =
  match t.reg_tamper.(r) with
  | None -> v
  | Some tam ->
    if Word.is_disc v then Word.disc
    else tam ~step:(boundary + 1) ~phase:Phase.Ra v
