open Csrtl_core

type t =
  | Stuck_sink of { sink : string; value : Word.t }
  | Dropped_leg of { index : int; desc : string }
  | Extra_driver of { sink : string; step : int; phase : Phase.t; value : Word.t }
  | Fu_latency of { fu : string; latency : int }
  | Transient of { sink : string; step : int; phase : Phase.t; value : Word.t }
  | Oscillator of { sink : string; step : int; phase : Phase.t }

(* Arbitrary but fixed corruption payloads, chosen to be unlikely to
   collide with real datapath values in the corpus models. *)
let stuck_payload = 13
let driver_payload = 7
let transient_payload = 11
let reg_payload = 9

let to_inject = function
  | Stuck_sink { sink; value } -> Inject.stuck_sink ~sink value
  | Dropped_leg { index; _ } -> Inject.dropped_leg index
  | Extra_driver { sink; step; phase; value } ->
    Inject.extra_driver ~sink ~step ~phase value
  | Fu_latency { fu; latency } -> Inject.fu_latency ~fu latency
  | Transient { sink; step; phase; value } ->
    Inject.transient_sink ~sink ~step ~phase value
  | Oscillator { sink; step; phase } -> Inject.oscillator ~sink ~step ~phase

(* Labels are built by concatenation, not through [Format]: a campaign
   renders one per fault into its fault-list digest and its report. *)
let to_string = function
  | Stuck_sink { sink; value } ->
    String.concat "" [ "stuck-at "; Word.to_string value; " on "; sink ]
  | Dropped_leg { index; desc } ->
    String.concat "" [ "dropped leg #"; string_of_int index; " ("; desc; ")" ]
  | Extra_driver { sink; step; phase; value } ->
    String.concat ""
      [ "extra driver "; Word.to_string value; " on "; sink; " during (";
        string_of_int step; ", "; Phase.to_string phase; ")" ]
  | Fu_latency { fu; latency } ->
    String.concat "" [ "latency of "; fu; " forced to "; string_of_int latency ]
  | Transient { sink; step; phase; value } ->
    String.concat ""
      [ "transient "; Word.to_string value; " on "; sink; " at (";
        string_of_int step; ", "; Phase.to_string phase; ")" ]
  | Oscillator { sink; step; phase } ->
    String.concat ""
      [ "oscillator on "; sink; " from ("; string_of_int step; ", ";
        Phase.to_string phase; ")" ]

let pp ppf f = Format.pp_print_string ppf (to_string f)

(* Earliest control step at which the fault can make the realization
   diverge from the golden run — a sound lower bound, used by the
   campaign to pick the latest golden checkpoint it may resume from
   (the boundary [first_step - 1]).  Soundness argument per case:

   - a latency override changes the unit pipeline from the first
     step, so 1;
   - a dropped leg first withholds its contribution at the leg's
     read/write slot;
   - a saboteur or oscillator is scheduled at its (step, phase) and
     contributes nothing before it;
   - a transient tampers the sink's re-resolutions at its exact
     (step, phase); a slot at [ra] can coincide with the release
     resolution of step-1 drivers, so it conservatively reaches back
     one step;
   - a stuck register output first differs when the register first
     drives: immediately when its init is not DISC, otherwise at the
     first write into [R.in];
   - a stuck bus (or unit input) yields [value] at every resolution,
     but before the first legitimate write the sink has no resolution
     events, so it still reads DISC on both paths. *)
let first_step_in (lf : Legs.t) fault =
  let m = lf.Legs.model in
  let first_write sink =
    Option.value ~default:(m.cs_max + 1)
      (Hashtbl.find_opt lf.Legs.first_write sink)
  in
  match fault with
  | Fu_latency _ -> 1
  | Dropped_leg { index; _ } ->
    Option.value ~default:1 (Legs.step lf index)
  | Extra_driver { step; _ } | Oscillator { step; _ } -> step
  | Transient { step; phase; _ } ->
    if Phase.equal phase Phase.Ra then max 1 (step - 1) else step
  | Stuck_sink { sink; _ } ->
    let reg_of_out =
      if Filename.check_suffix sink ".out" then
        Model.find_register m (Filename.chop_suffix sink ".out")
      else None
    in
    (match reg_of_out with
     | Some r ->
       if not (Word.is_disc r.Model.init) then 1
       else first_write (r.Model.reg_name ^ ".in")
     | None ->
       (* the table holds every bus and every written sink *)
       Option.value ~default:1 (Hashtbl.find_opt lf.Legs.first_write sink))

let first_step m fault = first_step_in (Legs.of_model m) fault

(* Last step the fault's mechanism can act in — the dual bound to
   [first_step], used by the batched executor as the earliest
   retirement boundary.  A transient tampers exactly one (step,
   phase) resolution; an extra driver's contribution and release both
   mature within its step (the campaign only batches compilable
   faults, and a [cr] saboteur is not compilable); a dropped leg
   withholds exactly its slot's contribution.  Stuck sinks and
   latency overrides rewrite the transition function permanently, so
   re-converged state does not imply a converged future: [cs_max]. *)
let last_step_in (lf : Legs.t) fault =
  let m = lf.Legs.model in
  let clamp s = min (max s 1) m.cs_max in
  match fault with
  | Stuck_sink _ | Fu_latency _ | Oscillator _ -> m.cs_max
  | Dropped_leg { index; _ } ->
    (match Legs.step lf index with Some s -> clamp s | None -> 1)
  | Extra_driver { step; _ } | Transient { step; _ } -> clamp step

let last_step m fault = last_step_in (Legs.of_model m) fault

(* Deterministic stride subsample preserving enumeration order. *)
let subsample limit l =
  if limit < 1 then
    invalid_arg (Printf.sprintf "Fault.enumerate: limit %d < 1" limit);
  let n = List.length l in
  if n <= limit then l
  else
    let stride = (n + limit - 1) / limit in
    List.filteri (fun i _ -> i mod stride = 0) l

let enumerate ?limit (m : Model.t) =
  let legs, _ = Model.all_legs m in
  (* every sink's writer legs in leg order, grouped in one pass *)
  let writers = Hashtbl.create 16 in
  List.iter
    (fun (l : Transfer.leg) ->
      let d = Transfer.endpoint_name l.dst in
      Hashtbl.replace writers d
        (l :: Option.value ~default:[] (Hashtbl.find_opt writers d)))
    (List.rev legs);
  let legs_writing b = Option.value ~default:[] (Hashtbl.find_opt writers b) in
  let stuck_faults =
    List.concat_map
      (fun b ->
        List.map
          (fun value -> Stuck_sink { sink = b; value })
          [ Word.disc; Word.illegal; stuck_payload ])
      m.buses
    @ List.concat_map
        (fun (r : Model.register) ->
          List.map
            (fun value -> Stuck_sink { sink = r.reg_name ^ ".out"; value })
            [ Word.disc; Word.illegal; reg_payload ])
        m.registers
  in
  let drop_faults =
    List.mapi
      (fun index l ->
        Dropped_leg { index; desc = Transfer.leg_to_string l })
      legs
  in
  let driver_faults =
    List.concat_map
      (fun b ->
        let writers = legs_writing b in
        let active =
          match writers with
          | (l : Transfer.leg) :: _ ->
            [ Extra_driver
                { sink = b; step = l.step; phase = l.phase;
                  value = driver_payload } ]
          | [] -> []
        in
        (* one spurious driver on a slot where nothing legitimately
           writes the bus: the corruption flows silently if any reader
           samples it *)
        let phases = [ Phase.Ra; Phase.Rb; Phase.Wa; Phase.Wb ] in
        let slot_used step phase =
          List.exists
            (fun (l : Transfer.leg) ->
              l.step = step && Phase.equal l.phase phase)
            writers
        in
        let idle =
          let rec find step =
            if step > m.cs_max then []
            else
              match
                List.find_opt (fun ph -> not (slot_used step ph)) phases
              with
              | Some phase ->
                [ Extra_driver
                    { sink = b; step; phase; value = driver_payload } ]
              | None -> find (step + 1)
          in
          find 1
        in
        active @ idle)
      m.buses
  in
  let latency_faults =
    List.concat_map
      (fun (f : Model.fu) ->
        let candidates = [ f.latency + 1; f.latency - 1 ] in
        List.filter_map
          (fun latency ->
            if latency >= 1 && latency <> f.latency then
              Some (Fu_latency { fu = f.fu_name; latency })
            else None)
          candidates)
      m.fus
  in
  let transient_faults =
    List.concat_map
      (fun b ->
        match legs_writing b with
        | (l : Transfer.leg) :: _ ->
          (* the visibility slot of the first legitimate write *)
          let step = l.step and phase = Phase.succ l.phase in
          [ Transient { sink = b; step; phase; value = Word.illegal };
            Transient { sink = b; step; phase; value = transient_payload } ]
        | [] -> [])
      m.buses
  in
  let all =
    stuck_faults @ drop_faults @ driver_faults @ latency_faults
    @ transient_faults
  in
  match limit with None -> all | Some n -> subsample n all
