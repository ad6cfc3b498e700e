(** Result series and tables for the experiment harnesses.

    Each reproduced figure is a set of named curves over a shared x-axis;
    each reproduced table is a list of labelled rows.  This module collects
    points and renders them as aligned text tables (the format the paper's
    harness would have printed) and as CSV for external plotting. *)

type curve

val curve : string -> curve
(** A named, initially empty curve. *)

val add_point : curve -> x:float -> y:float -> unit
val points : curve -> (float * float) list
(** Points in insertion order. *)

val y_at : curve -> float -> float option
(** [y_at c x] is the y value recorded closest to [x] within a relative
    tolerance of [1e-9], scaled by [max 1. |x|].  Abscissae
    produced by float arithmetic (e.g. [i *. step]) therefore still match
    their nominal grid value. *)

type figure

val figure : title:string -> x_label:string -> y_label:string -> curve list -> figure
val pp_figure : Format.formatter -> figure -> unit
(** Render the figure as an aligned table: one row per x value, one column
    per curve. *)

val pp_figure_chart : Format.formatter -> figure -> unit
(** Render the figure as horizontal ASCII bar charts, one block per curve,
    bars scaled to the figure-wide maximum — a terminal-friendly
    approximation of the paper's plots. *)

val figure_to_csv : figure -> string

type table

val table : title:string -> columns:string list -> table
val add_row : table -> string list -> unit
val pp_table : Format.formatter -> table -> unit
val table_to_csv : table -> string
val table_rows : table -> string list list
